#include "atpg/atpg.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "rtl/cnf.hpp"
#include "sat/solver.hpp"

namespace symbad::atpg {

namespace {

/// Registry-only work counters of the Laerte engine, each added once per
/// call: front-end runs from BAY (evaluated frames and distinct GA
/// stimuli) and (fault, frame) pairs whose fault simulation resumed.
struct AtpgObs {
  obs::Counter front_end_runs;
  obs::Counter fault_frames_resumed;
};

const AtpgObs& atpg_obs() {
  auto& registry = obs::Registry::instance();
  static const AtpgObs counters{
      registry.counter("atpg.front_end_runs"),
      registry.counter("atpg.fault_frames_resumed"),
  };
  return counters;
}

}  // namespace

media::Pose Stimulus::to_pose() const {
  media::Pose pose;
  pose.dx = dx;
  pose.dy = dy;
  pose.rot_deg = rot_deg;
  pose.scale_q8 = scale_q8;
  pose.light_offset = light_offset;
  pose.noise_amp = noise_amp;
  pose.noise_seed = noise_seed;
  return pose;
}

Stimulus Stimulus::random(verif::Rng& rng, int identities) {
  Stimulus s;
  s.identity = static_cast<int>(rng.below(static_cast<std::uint64_t>(identities)));
  s.dx = static_cast<int>(rng.range(-6, 6));
  s.dy = static_cast<int>(rng.range(-6, 6));
  s.rot_deg = static_cast<int>(rng.range(-12, 12));
  s.scale_q8 = static_cast<int>(rng.range(216, 300));
  s.light_offset = static_cast<int>(rng.range(-20, 25));
  s.noise_amp = static_cast<int>(rng.range(0, 6));
  s.noise_seed = rng.next();
  return s;
}

Laerte::Laerte(Config config)
    : config_{std::move(config)},
      db_{media::FaceDatabase::enroll(config_.identities, config_.poses_per_identity,
                                      config_.image_size, config_.pipeline)} {}

media::Image Laerte::capture(const Stimulus& s) const {
  return media::camera_capture(media::FaceParams::for_identity(s.identity), s.to_pose(),
                               config_.image_size);
}

std::vector<verif::BitFault> Laerte::bit_fault_list() const {
  // Stage-boundary outputs of interest: a deterministic word/bit sample per
  // stage (the full cross product is enormous; Laerte++ samples too).
  const char* stages[] = {media::stage::bay,     media::stage::erosion,
                          media::stage::root,    media::stage::edge,
                          media::stage::crtbord, media::stage::calcline};
  std::vector<verif::BitFault> faults;
  verif::Rng rng{0xB17FA117ULL};
  const int words = config_.image_size * config_.image_size;
  for (const char* stage_name : stages) {
    for (int k = 0; k < config_.faults_per_stage; ++k) {
      verif::BitFault f;
      f.stage = stage_name;
      f.port = verif::PortDirection::output;
      f.word_index = static_cast<int>(rng.below(static_cast<std::uint64_t>(words)));
      f.bit = static_cast<int>(rng.below(8));
      f.stuck_to = (k & 1) != 0;
      faults.push_back(std::move(f));
    }
  }
  return faults;
}

Estimate Laerte::evaluate(const Testbench& tb, bool grade_bit_faults) {
  Estimate estimate;
  verif::CoverageDb cov;
  // The coverage runs double as the grading's golden runs: instrumentation
  // does not change what a kernel computes.
  std::vector<media::PipelineValues> golden;
  {
    verif::CoverageDb::Scope scope{cov};
    for (const auto& s : tb.frames) {
      auto run = media::golden_run(capture(s), db_, config_.pipeline);
      if (grade_bit_faults) golden.push_back(std::move(run));
    }
  }
  atpg_obs().front_end_runs.add(tb.frames.size());
  estimate.coverage = cov.report();
  estimate.fitness = estimate.coverage.overall_percent();
  if (!grade_bit_faults) return estimate;

  const auto faults = bit_fault_list();
  estimate.bit_faults.total = faults.size();
  std::uint64_t resumed = 0;
  for (const auto& fault : faults) {
    for (const auto& g : golden) {
      const auto faulty = media::simulate_fault(g, db_, config_.pipeline, fault);
      if (!faulty) continue;  // not excited: this frame's outputs stay golden
      ++resumed;
      const bool differs = g.winner.index != faulty->winner.index ||
                           g.distances != faulty->distances || g.features != faulty->features;
      if (differs) {
        ++estimate.bit_faults.detected;
        break;
      }
    }
  }
  atpg_obs().fault_frames_resumed.add(resumed);
  return estimate;
}

Testbench Laerte::random_testbench(int frames, std::uint64_t seed) const {
  verif::Rng rng{seed};
  Testbench tb;
  for (int i = 0; i < frames; ++i) {
    tb.frames.push_back(Stimulus::random(rng, config_.identities));
  }
  return tb;
}

Testbench Laerte::genetic_testbench(int frames, int population, int generations,
                                    std::uint64_t seed) {
  if (frames < 1 || population < 1) {
    throw std::invalid_argument{"genetic_testbench: frames and population must be >= 1"};
  }
  verif::Rng rng{seed};
  struct Individual {
    Testbench tb;
    double fitness = -1.0;
  };
  std::vector<Individual> pool;
  for (int i = 0; i < population; ++i) {
    pool.push_back(Individual{random_testbench(frames, rng.next()), -1.0});
  }
  // Each distinct stimulus is simulated once, under its own coverage
  // database; a testbench's fitness is the merge of its frames' databases.
  // That equals evaluate(tb).fitness: the kernels are pure, no frame carries
  // state into the next, and per-frame hits add.
  std::map<Stimulus, verif::CoverageDb> frame_cov;
  auto fitness_of = [&](const Testbench& tb) {
    verif::CoverageDb merged;
    for (const auto& s : tb.frames) {
      const auto [it, fresh] = frame_cov.try_emplace(s);
      if (fresh) {
        verif::CoverageDb::Scope scope{it->second};
        (void)media::recognize(capture(s), db_, config_.pipeline);
      }
      merged.merge_from(it->second);
    }
    return merged.report().overall_percent();
  };
  for (auto& ind : pool) ind.fitness = fitness_of(ind.tb);

  auto tournament = [&]() -> const Individual& {
    const auto& a = pool[static_cast<std::size_t>(rng.below(pool.size()))];
    const auto& b = pool[static_cast<std::size_t>(rng.below(pool.size()))];
    return a.fitness >= b.fitness ? a : b;
  };

  for (int gen = 0; gen < generations; ++gen) {
    std::sort(pool.begin(), pool.end(),
              [](const Individual& a, const Individual& b) { return a.fitness > b.fitness; });
    std::vector<Individual> next;
    next.push_back(pool.front());  // elitism
    while (static_cast<int>(next.size()) < population) {
      const Individual& pa = tournament();
      const Individual& pb = tournament();
      Individual child;
      for (int f = 0; f < frames; ++f) {
        const auto& src = (rng.next() & 1) != 0 ? pa : pb;
        child.tb.frames.push_back(src.tb.frames[static_cast<std::size_t>(f)]);
      }
      // Mutation: perturb one field of one frame with high probability.
      if (rng.chance(0.8)) {
        auto& s = child.tb.frames[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(frames)))];
        switch (rng.below(6)) {
          case 0: s.identity = static_cast<int>(rng.below(
                      static_cast<std::uint64_t>(config_.identities)));
            break;
          case 1: s.dx = static_cast<int>(rng.range(-8, 8)); break;
          case 2: s.rot_deg = static_cast<int>(rng.range(-15, 15)); break;
          case 3: s.light_offset = static_cast<int>(rng.range(-30, 30)); break;
          case 4: s.noise_amp = static_cast<int>(rng.range(0, 8)); break;
          default: s.noise_seed = rng.next(); break;
        }
      }
      child.fitness = fitness_of(child.tb);
      next.push_back(std::move(child));
    }
    pool = std::move(next);
  }
  std::sort(pool.begin(), pool.end(),
            [](const Individual& a, const Individual& b) { return a.fitness > b.fitness; });
  atpg_obs().front_end_runs.add(frame_cov.size());
  return pool.front().tb;
}

bool Laerte::detects_seeded_memory_bug(const Testbench& tb) const {
  media::PipelineConfig buggy = config_.pipeline;
  buggy.seeded_memory_bug = true;
  media::FrontEndState state;
  for (const auto& s : tb.frames) {
    // The bug alters only CRTBORD's window, and every output below it is a
    // function of the window: the buggy run recomputes CRTBORD on the clean
    // front end's values, and the windows are compared.
    media::PipelineValues values;
    values.bayer = capture(s);
    media::run_front_end(values, media::Boundary::frame, config_.pipeline);
    const media::Image window = std::move(values.window);
    media::run_stage(media::stage::crtbord, values, buggy, nullptr, &state);
    if (values.window != window) return true;
  }
  return false;
}

// -------------------------------------------------------- SAT engine

SatEngine::SatEngine(const rtl::Netlist& netlist, Options options)
    : netlist_{&netlist},
      options_{options},
      encoder_{netlist, solver_},
      cones_{netlist} {
  if (options_.unroll < 1) {
    throw std::invalid_argument{"atpg: SAT engine needs at least one frame"};
  }
  // The good unrolling is shared by every fault and encoded exactly once.
  for (int f = 0; f < options_.unroll; ++f) {
    rtl::CnfEncoder::Options good_opts;
    good_opts.state = f == 0 ? rtl::StateInit::reset : rtl::StateInit::chained;
    if (f > 0) good_opts.previous = &good_.back();
    good_.push_back(encoder_.encode(good_opts));
    std::vector<sat::Lit> shared;
    for (const rtl::Net in : netlist.inputs()) shared.push_back(good_.back().lit(in));
    shared_inputs_.push_back(std::move(shared));
  }
}

std::optional<SatTest> SatEngine::generate(rtl::Net fault_net, bool stuck_to) {
  const auto cone = cones_.fault_cones(fault_net, options_.unroll);
  const std::map<rtl::Net, bool> faults{{fault_net, stuck_to}};
  const sat::Var first_var = solver_.variable_count();
  const sat::Lit act = sat::Lit::positive(solver_.new_var());

  // Faulty copy plus output miter, every clause gated behind `act`. The
  // faulty copy reuses the good copy's literal wherever a net cannot differ
  // (outside the fault cone, or reading only good-copy literals), so an
  // output whose literal equals the good one needs no miter XOR.
  std::vector<rtl::Frame> bad;
  std::vector<sat::Lit> diff_clause{~act};
  for (int f = 0; f < options_.unroll; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    rtl::CnfEncoder::Options bad_opts;
    bad_opts.state = f == 0 ? rtl::StateInit::reset : rtl::StateInit::chained;
    if (f > 0) bad_opts.previous = &bad.back();
    bad_opts.shared_inputs = &shared_inputs_[fi];
    bad_opts.faults = &faults;
    bad_opts.cone = &cone[fi];
    bad_opts.reuse_base = &good_[fi];
    bad_opts.activation = act;
    bad.push_back(encoder_.encode(bad_opts));

    for (const auto& [name, net] : netlist_->outputs()) {
      const sat::Lit g = encoder_.canonical(good_[fi].lit(net));
      const sat::Lit b = encoder_.canonical(bad.back().lit(net));
      if (g == b) continue;
      const sat::Lit d = sat::Lit::positive(solver_.new_var());
      solver_.add_clause({~act, ~d, g, b});
      solver_.add_clause({~act, ~d, ~g, ~b});
      diff_clause.push_back(d);
    }
  }

  // No output literal differs: the fault is undetectable without a solve.
  std::optional<SatTest> test;
  if (diff_clause.size() > 1 && solver_.add_clause(diff_clause) &&
      solver_.solve({act}) == sat::Result::sat) {
    test.emplace();
    for (int f = 0; f < options_.unroll; ++f) {
      std::map<std::string, bool> frame_inputs;
      for (const rtl::Net in : netlist_->inputs()) {
        const sat::Lit l = good_[static_cast<std::size_t>(f)].lit(in);
        frame_inputs[netlist_->net_name(in)] = solver_.model_value(l.var()) != l.negated();
      }
      test->frames.push_back(std::move(frame_inputs));
    }
  }
  // Retire the miter: all its clauses become satisfied and drift out of the
  // watch lists; learned clauses mentioning ~act die with it. Then pin the
  // cone's now-unconstrained variables at the root — otherwise every later
  // SAT solve would still have to enumerate them into its model, and solve
  // cost would grow with the number of retired faults.
  solver_.add_unit(~act);
  for (sat::Var v = first_var; v < solver_.variable_count(); ++v) {
    if (solver_.root_value(v) == sat::Value::undef) {
      solver_.add_unit(sat::Lit::negative(v));
    }
  }
  return test;
}

std::vector<SatEngine::FaultResult> SatEngine::generate_tests(
    std::span<const std::pair<rtl::Net, bool>> faults) {
  std::vector<FaultResult> results;
  results.reserve(faults.size());
  for (const auto& [net, stuck_to] : faults) {
    FaultResult r;
    r.net = net;
    r.stuck_to = stuck_to;
    r.test = generate(net, stuck_to);
    results.push_back(std::move(r));
  }
  return results;
}

std::optional<SatTest> sat_generate_test(const rtl::Netlist& netlist, rtl::Net fault_net,
                                         bool stuck_to, int unroll) {
  SatEngine engine{netlist, {unroll}};
  return engine.generate(fault_net, stuck_to);
}

}  // namespace symbad::atpg
