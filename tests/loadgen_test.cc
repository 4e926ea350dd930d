// Tests for the open-loop load-generation subsystem: arrival-process
// rates and determinism, Zipf popularity shape, payload distributions,
// trace round-trips and synthesis, replay ordering, SLO accounting, and
// — the property the subsystem exists for — coordinated-omission-safe
// latency under a stalled server.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "framework/metrics.h"
#include "loadgen/arrival.h"
#include "loadgen/generator.h"
#include "loadgen/popularity.h"
#include "loadgen/slo.h"
#include "loadgen/trace.h"
#include "sim/simulator.h"

namespace lnic::loadgen {
namespace {

// ------------------------------------------------------------- arrivals

std::vector<SimTime> arrival_times(const ArrivalSpec& spec,
                                   std::uint64_t seed, SimDuration window) {
  auto process = make_arrivals(spec, seed);
  std::vector<SimTime> times;
  SimTime t = 0;
  for (;;) {
    t += process->next_gap();
    if (t > window) break;
    times.push_back(t);
  }
  return times;
}

TEST(Arrivals, FixedRateMatchesConfiguredRate) {
  const auto times =
      arrival_times(ArrivalSpec::fixed(10000.0), 1, seconds(1));
  EXPECT_EQ(times.size(), 10000u);
  // Constant gap, exactly the hand-rolled 1e9/rate spacing.
  EXPECT_EQ(times[0], 100000);
  EXPECT_EQ(times[1] - times[0], 100000);
}

TEST(Arrivals, PoissonEmpiricalRateWithinTolerance) {
  const double rate = 20000.0;
  const auto times =
      arrival_times(ArrivalSpec::poisson(rate), 42, seconds(2));
  const double empirical = static_cast<double>(times.size()) / 2.0;
  EXPECT_NEAR(empirical, rate, 0.05 * rate);
}

TEST(Arrivals, OnOffEmpiricalRateNearDwellWeightedMean) {
  const ArrivalSpec spec = ArrivalSpec::on_off(
      8000.0, 1000.0, milliseconds(20), milliseconds(30));
  const double expected = spec.mean_rate_rps();
  EXPECT_NEAR(expected, (8000.0 * 20 + 1000.0 * 30) / 50.0, 1e-9);
  const auto times = arrival_times(spec, 7, seconds(10));
  const double empirical = static_cast<double>(times.size()) / 10.0;
  EXPECT_NEAR(empirical, expected, 0.15 * expected);
}

TEST(Arrivals, DeterministicUnderSeedDistinctAcrossSeeds) {
  const ArrivalSpec spec = ArrivalSpec::poisson(5000.0);
  const auto a = arrival_times(spec, 9, milliseconds(200));
  const auto b = arrival_times(spec, 9, milliseconds(200));
  const auto c = arrival_times(spec, 10, milliseconds(200));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Arrivals, OnOffIsBurstierThanPoisson) {
  // Squared coefficient of variation of inter-arrival gaps: ~1 for
  // Poisson, > 1 for the on-off modulated process.
  auto cv2 = [](const std::vector<SimTime>& times) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i) {
      gaps.push_back(static_cast<double>(times[i] - times[i - 1]));
    }
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return var / (mean * mean);
  };
  const auto poisson =
      arrival_times(ArrivalSpec::poisson(4000.0), 3, seconds(5));
  const auto bursty = arrival_times(
      ArrivalSpec::on_off(16000.0, 400.0, milliseconds(10),
                          milliseconds(40)),
      3, seconds(5));
  EXPECT_NEAR(cv2(poisson), 1.0, 0.2);
  EXPECT_GT(cv2(bursty), 2.0);
}

TEST(Arrivals, NonPositiveOrNonFiniteRateOffersNothing) {
  // No 1 ns flood: a stream without a positive finite rate never arrives.
  for (const ArrivalSpec& spec :
       {ArrivalSpec::fixed(0.0), ArrivalSpec::poisson(0.0),
        ArrivalSpec::poisson(-5.0),
        ArrivalSpec::fixed(std::numeric_limits<double>::infinity()),
        ArrivalSpec::poisson(std::numeric_limits<double>::quiet_NaN())}) {
    EXPECT_EQ(make_arrivals(spec, 1)->next_gap(), kSimTimeMax)
        << spec.rate_rps;
  }
}

TEST(Arrivals, OnOffWithBothStatesSilentOffersNothing) {
  // Kept apart from the test above: this draw used to loop forever.
  auto process = make_arrivals(
      ArrivalSpec::on_off(0.0, 0.0, milliseconds(10), milliseconds(10)), 1);
  EXPECT_EQ(process->next_gap(), kSimTimeMax);
}

// ----------------------------------------------------------- popularity

TEST(Zipf, RankFrequencyShape) {
  const double s = 1.0;
  ZipfSelector zipf(16, s, 5);
  std::vector<std::uint64_t> counts(16, 0);
  const std::uint64_t draws = 200000;
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[zipf.sample()];
  // Frequencies decrease in rank and match 1/rank within tolerance.
  for (std::size_t rank = 1; rank < 8; ++rank) {
    EXPECT_LT(counts[rank], counts[rank - 1]) << "rank " << rank;
  }
  const double ratio = static_cast<double>(counts[0]) /
                       static_cast<double>(counts[1]);
  EXPECT_NEAR(ratio, 2.0, 0.2);  // s = 1: f(1)/f(2) = 2
  for (std::size_t rank = 0; rank < 16; ++rank) {
    const double expected =
        zipf.expected_fraction(rank) * static_cast<double>(draws);
    EXPECT_NEAR(static_cast<double>(counts[rank]), expected,
                0.1 * expected + 50.0);
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfSelector zipf(10, 0.0, 5);
  for (std::size_t rank = 0; rank < 10; ++rank) {
    EXPECT_NEAR(zipf.expected_fraction(rank), 0.1, 1e-12);
  }
}

TEST(PayloadDist, SamplesRespectShape) {
  Rng rng(17);
  const PayloadDist fixed = PayloadDist::fixed_size(128);
  EXPECT_EQ(fixed.sample(rng), 128u);
  const PayloadDist uniform = PayloadDist::uniform(100, 200);
  for (int i = 0; i < 1000; ++i) {
    const Bytes b = uniform.sample(rng);
    EXPECT_GE(b, 100u);
    EXPECT_LE(b, 200u);
  }
  const PayloadDist bimodal = PayloadDist::bimodal(64, 4096, 0.25);
  std::uint64_t large = 0;
  for (int i = 0; i < 4000; ++i) {
    const Bytes b = bimodal.sample(rng);
    EXPECT_TRUE(b == 64u || b == 4096u);
    if (b == 4096u) ++large;
  }
  EXPECT_NEAR(static_cast<double>(large) / 4000.0, 0.25, 0.05);
  EXPECT_NEAR(bimodal.mean(), 64.0 * 0.75 + 4096.0 * 0.25, 1e-9);
}

// ---------------------------------------------------------------- trace

TEST(Trace, WriterReaderRoundTrip) {
  SynthSpec spec;
  spec.pattern = SynthPattern::kBurst;
  spec.duration = milliseconds(200);
  spec.base_rps = 1000.0;
  spec.peak_rps = 8000.0;
  spec.functions = 6;
  spec.payload = PayloadDist::uniform(32, 512);
  const auto events = synthesize(spec);
  ASSERT_FALSE(events.empty());
  const auto parsed = parse_trace(write_trace(events));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), events);
}

TEST(Trace, SynthesisIsDeterministic) {
  SynthSpec spec;
  spec.pattern = SynthPattern::kDiurnal;
  spec.duration = milliseconds(300);
  EXPECT_EQ(synthesize(spec), synthesize(spec));
  SynthSpec other = spec;
  other.seed = 2;
  EXPECT_NE(synthesize(spec), synthesize(other));
}

TEST(Trace, TimestampsMonotone) {
  SynthSpec spec;
  spec.pattern = SynthPattern::kDiurnal;
  spec.duration = milliseconds(500);
  const auto events = synthesize(spec);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at);
    EXPECT_LT(events[i].at, spec.duration);
  }
}

TEST(Trace, BurstPatternConcentratesArrivals) {
  SynthSpec spec;
  spec.pattern = SynthPattern::kBurst;
  spec.duration = seconds(1);
  spec.base_rps = 500.0;
  spec.peak_rps = 10000.0;
  spec.period = milliseconds(100);
  spec.burst_len = milliseconds(20);
  const auto events = synthesize(spec);
  std::uint64_t in_burst = 0;
  for (const TraceEvent& e : events) {
    if ((e.at % spec.period) < spec.burst_len) ++in_burst;
  }
  // 20% of the time carries the peak rate: expect the clear majority of
  // arrivals inside bursts (10000*0.02 vs 500*0.08 per period).
  EXPECT_GT(static_cast<double>(in_burst),
            0.7 * static_cast<double>(events.size()));
}

TEST(Trace, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_trace("1000 fn000\n").ok());          // missing field
  EXPECT_FALSE(parse_trace("1000 fn000 64 extra\n").ok()); // trailing junk
  EXPECT_FALSE(parse_trace("-5 fn000 64\n").ok());         // negative ts
  EXPECT_FALSE(parse_trace("100 fn000 -5\n").ok());        // negative bytes
  EXPECT_FALSE(parse_trace("200 a 1\n100 b 1\n").ok());    // goes backwards
  EXPECT_FALSE(parse_trace("abc fn000 64\n").ok());        // non-numeric
  const auto ok = parse_trace("# comment\n\n10 fn000 64\n10 fn001 8\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 2u);
}

// ------------------------------------------------------------ generator

/// Echo service: completes each request after `service`, serialized on
/// one simulated server, with an optional [stall_from, stall_until)
/// window during which the server is wedged.
struct EchoService {
  sim::Simulator& sim;
  SimDuration service;
  SimTime stall_from = 0, stall_until = 0;
  SimTime free_at = 0;
  std::uint64_t served = 0;

  Sink sink() {
    return [this](const Request&, CompletionFn done) {
      SimTime start = std::max(sim.now(), free_at);
      if (start >= stall_from && start < stall_until) start = stall_until;
      free_at = start + service;
      sim.schedule_at(free_at, [this, done = std::move(done)] {
        ++served;
        done(true);
      });
    };
  }
};

TEST(Generator, OpenLoopOffersIndependentOfCompletions) {
  sim::Simulator sim;
  EchoService slow{sim, milliseconds(10)};  // far slower than arrivals
  LoadGenConfig config;
  config.arrivals = ArrivalSpec::fixed(1000.0);
  config.duration = milliseconds(100);
  LoadGenerator generator(sim, config, uniform_functions(1), slow.sink());
  generator.start();
  sim.run();
  // A closed-loop driver would have offered ~10 requests; the open loop
  // offers all 100 regardless of the server's pace.
  EXPECT_EQ(generator.offered(), 100u);
  EXPECT_TRUE(generator.drained());
  EXPECT_EQ(generator.completed(), 100u);
}

TEST(Generator, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    std::vector<std::pair<SimTime, std::string>> offered;
    LoadGenConfig config;
    config.arrivals = ArrivalSpec::poisson(5000.0);
    config.zipf_s = 0.9;
    config.duration = milliseconds(100);
    config.seed = seed;
    LoadGenerator generator(
        sim, config, uniform_functions(8, PayloadDist::uniform(16, 256)),
        [&](const Request& request, CompletionFn done) {
          offered.emplace_back(request.intended, request.function);
          done(true);
        });
    generator.start();
    sim.run();
    return offered;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(Generator, ReplayPreservesCountAndOrdering) {
  SynthSpec spec;
  spec.pattern = SynthPattern::kConstant;
  spec.duration = milliseconds(100);
  spec.base_rps = 2000.0;
  spec.functions = 4;
  const auto events = synthesize(spec);
  ASSERT_FALSE(events.empty());

  sim::Simulator sim;
  std::vector<TraceEvent> seen;
  LoadGenerator generator(
      sim, LoadGenConfig{}, events,
      [&](const Request& request, CompletionFn done) {
        seen.push_back(TraceEvent{request.intended - 0, request.function,
                                  request.payload_bytes});
        done(true);
      });
  generator.start();
  sim.run();
  EXPECT_EQ(generator.offered(), events.size());
  EXPECT_TRUE(generator.drained());
  ASSERT_EQ(seen.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(seen[i].at, events[i].at) << i;
    EXPECT_EQ(seen[i].function, events[i].function) << i;
    EXPECT_EQ(seen[i].payload_bytes, events[i].payload_bytes) << i;
  }
}

TEST(Generator, MaxRequestsAndStopBoundOffering) {
  sim::Simulator sim;
  EchoService echo{sim, microseconds(1)};
  LoadGenConfig config;
  config.arrivals = ArrivalSpec::fixed(10000.0);
  config.max_requests = 25;
  LoadGenerator generator(sim, config, uniform_functions(2), echo.sink());
  generator.start();
  sim.run();
  EXPECT_EQ(generator.offered(), 25u);
  EXPECT_TRUE(generator.drained());
}

TEST(Generator, ZeroRateDrainsWithoutOffering) {
  sim::Simulator sim;
  EchoService echo{sim, microseconds(1)};
  LoadGenConfig config;
  config.arrivals = ArrivalSpec::poisson(0.0);
  config.max_requests = 100;  // bounds the run if arrivals ever flood
  LoadGenerator generator(sim, config, uniform_functions(1), echo.sink());
  generator.start();
  sim.run();
  EXPECT_EQ(generator.offered(), 0u);
  EXPECT_TRUE(generator.drained());
}

TEST(Generator, ExportsOfferedGaugesAlongsideRegistry) {
  sim::Simulator sim;
  EchoService echo{sim, microseconds(50)};
  framework::MetricsRegistry registry;
  LoadGenConfig config;
  config.arrivals = ArrivalSpec::fixed(2000.0);
  config.duration = milliseconds(100);
  config.zipf_s = 0.5;
  LoadGenerator generator(sim, config, uniform_functions(3), echo.sink());
  generator.set_metrics(&registry);
  generator.start();
  sim.run();
  EXPECT_TRUE(registry.has("loadgen_inflight"));
  EXPECT_EQ(registry.gauge("loadgen_inflight"), 0.0);  // drained
  EXPECT_EQ(registry.gauge("loadgen_offered_requests"), 200.0);
  const double hot = registry.gauge("loadgen_offered_rps", {{"fn", "fn000"}});
  const double cold = registry.gauge("loadgen_offered_rps", {{"fn", "fn002"}});
  EXPECT_GT(hot, cold);  // Zipf skew shows up in the gauges
  const std::string text = registry.render();
  EXPECT_NE(text.find("loadgen_offered_rps{fn=\"fn000\"}"),
            std::string::npos);
  // SLO export is idempotent and lands in the same registry.
  generator.slo().export_to(registry, milliseconds(100));
  generator.slo().export_to(registry, milliseconds(100));
  EXPECT_EQ(registry.gauge("loadgen_offered_total", {{"fn", "fn000"}}),
            registry.gauge("loadgen_offered_total", {{"fn", "fn000"}}));
}

// ------------------------------------------------- scrape-time gauges

/// Keeps, apart from the generator, what its offered-load gauges are
/// defined from: per-function offered counts, requests in flight and the
/// last arrival, dispatch or completion. Wraps an unbounded open-loop
/// sink, so arrival and dispatch share an instant.
struct GaugeModel {
  sim::Simulator& sim;
  Sink inner;
  SimTime start = 0;
  SimTime last_event = 0;
  std::uint64_t offered = 0;
  std::uint64_t inflight = 0;
  std::map<std::string, std::uint64_t> counts{};

  Sink sink() {
    return [this](const Request& request, CompletionFn done) {
      last_event = sim.now();
      ++offered;
      ++inflight;
      ++counts[request.function];
      inner(request, [this, done = std::move(done)](bool ok) {
        last_event = sim.now();
        --inflight;
        done(ok);
      });
    };
  }

  double rps(const std::string& function) const {
    return static_cast<double>(counts.at(function)) /
           to_sec(last_event - start);
  }

  /// The loadgen_* lines render() should print, series -> value text.
  void expected(std::map<std::string, std::string>& series) const {
    auto text = [](double value) {
      std::ostringstream out;
      out << value;
      return out.str();
    };
    if (offered == 0) return;
    series["loadgen_inflight"] = text(static_cast<double>(inflight));
    series["loadgen_offered_requests"] = text(static_cast<double>(offered));
    if (last_event <= start) return;
    for (const auto& [function, count] : counts) {
      series["loadgen_offered_rps{fn=\"" + function + "\"}"] =
          text(rps(function));
    }
  }

  /// The rendered lines and direct reads both match the definition.
  void expect_gauges(framework::MetricsRegistry& registry) const {
    std::map<std::string, std::string> series;
    expected(series);
    EXPECT_EQ(loadgen_series(registry), series);
    if (offered == 0) return;  // a read would create the series
    EXPECT_EQ(registry.gauge("loadgen_inflight"),
              static_cast<double>(inflight));
    EXPECT_EQ(registry.gauge("loadgen_offered_requests"),
              static_cast<double>(offered));
    if (last_event <= start) return;
    for (const auto& [function, count] : counts) {
      EXPECT_EQ(registry.gauge("loadgen_offered_rps", {{"fn", function}}),
                rps(function))
          << function;
    }
  }

  /// The loadgen_* lines `registry` renders, series -> value text.
  static std::map<std::string, std::string> loadgen_series(
      const framework::MetricsRegistry& registry) {
    std::map<std::string, std::string> series;
    std::istringstream lines(registry.render());
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("loadgen_", 0) != 0) continue;
      const auto space = line.rfind(' ');
      series[line.substr(0, space)] = line.substr(space + 1);
    }
    return series;
  }
};

TEST(Generator, GaugesAreEvaluatedWhenReadMidRunAndAfterDrain) {
  SynthSpec spec;
  spec.pattern = SynthPattern::kBurst;
  spec.duration = milliseconds(100);
  spec.base_rps = 2000.0;
  spec.peak_rps = 8000.0;
  spec.functions = 6;
  const auto trace = synthesize(spec);
  for (const bool replay : {false, true}) {
    SCOPED_TRACE(replay ? "replay" : "synthetic");
    sim::Simulator sim;
    EchoService echo{sim, microseconds(400)};  // overloaded: a queue forms
    GaugeModel model{sim, echo.sink()};
    framework::MetricsRegistry registry;
    LoadGenConfig config;
    config.arrivals = ArrivalSpec::poisson(3000.0);
    config.zipf_s = 0.9;
    config.duration = milliseconds(100);
    auto generator =
        replay ? std::make_unique<LoadGenerator>(sim, config, trace,
                                                 model.sink())
               : std::make_unique<LoadGenerator>(
                     sim, config, uniform_functions(6), model.sink());
    generator->set_metrics(&registry);
    EXPECT_FALSE(registry.has("loadgen_inflight"));  // no event yet
    generator->start();
    for (const SimTime at : {milliseconds(1), milliseconds(37),
                             milliseconds(70)}) {
      sim.run_until(at);
      model.expect_gauges(registry);
    }
    EXPECT_GT(model.inflight, 1u);  // the last read saw a queue
    sim.run();
    ASSERT_TRUE(generator->drained());
    EXPECT_GT(model.counts.size(), 3u);
    model.expect_gauges(registry);
  }
}

TEST(Generator, LastGaugeValuesStayBehindAfterRepointAndDestruction) {
  sim::Simulator sim;
  EchoService echo{sim, microseconds(100)};
  GaugeModel model{sim, echo.sink()};
  framework::MetricsRegistry first;
  framework::MetricsRegistry second;
  LoadGenConfig config;
  config.arrivals = ArrivalSpec::poisson(4000.0);
  config.zipf_s = 0.5;
  config.duration = milliseconds(60);
  std::map<std::string, std::string> at_repoint;
  {
    LoadGenerator generator(sim, config, uniform_functions(4), model.sink());
    generator.set_metrics(&first);
    generator.start();
    sim.run_until(milliseconds(20));
    model.expected(at_repoint);
    generator.set_metrics(&second);  // nothing read `first` since start()
    EXPECT_FALSE(second.has("loadgen_inflight"));  // until the next event
    sim.run_until(milliseconds(40));
    EXPECT_EQ(GaugeModel::loadgen_series(first), at_repoint);
    model.expect_gauges(second);
    sim.run();
    ASSERT_TRUE(generator.drained());
  }
  model.expect_gauges(second);  // destroyed with no read since the drain
  EXPECT_EQ(GaugeModel::loadgen_series(first), at_repoint);

  // Detaching leaves the same plain gauges as destruction does.
  sim::Simulator again;
  EchoService echo2{again, microseconds(100)};
  GaugeModel model2{again, echo2.sink()};
  framework::MetricsRegistry third;
  LoadGenerator generator(again, config, uniform_functions(4),
                          model2.sink());
  generator.set_metrics(&third);
  generator.start();
  again.run();
  generator.set_metrics(nullptr);
  model2.expect_gauges(third);
}

TEST(Generator, TwoGeneratorsInTurnShareOneRegistry) {
  // As examples/traffic_mix runs its phases: one generator per phase on
  // the gateway registry, each destroyed before the next attaches.
  sim::Simulator sim;
  EchoService echo{sim, microseconds(80)};
  framework::MetricsRegistry registry;
  std::map<std::string, std::string> expected;
  for (const std::size_t functions : {5, 3}) {
    GaugeModel model{sim, echo.sink()};
    LoadGenConfig config;
    config.arrivals = ArrivalSpec::poisson(3000.0);
    config.zipf_s = 0.9;
    config.duration = milliseconds(50);
    config.seed = functions;
    LoadGenerator generator(sim, config, uniform_functions(functions),
                            model.sink());
    generator.set_metrics(&registry);
    model.start = sim.now();
    generator.start();
    sim.run_until(sim.now() + milliseconds(20));
    std::map<std::string, std::string> mid = expected;
    model.expected(mid);
    EXPECT_EQ(GaugeModel::loadgen_series(registry), mid);
    sim.run();
    model.expected(expected);  // later phases overwrite shared series
  }
  // fn003/fn004 keep the first phase's rates; the rest are the second's.
  EXPECT_EQ(expected.size(), 2u + 5u);
  EXPECT_EQ(GaugeModel::loadgen_series(registry), expected);
}

TEST(Generator, RestartKeepsTheOldWindowUntilAnEventPastTheNewStart) {
  sim::Simulator sim;
  EchoService echo{sim, microseconds(50)};
  GaugeModel model{sim, echo.sink()};
  framework::MetricsRegistry registry;
  std::vector<TraceEvent> trace = {{0, "a", 64}, {milliseconds(1), "b", 64}};
  LoadGenerator generator(sim, LoadGenConfig{}, trace, model.sink());
  generator.set_metrics(&registry);
  generator.start();
  sim.run();
  std::map<std::string, std::string> first_run;
  model.expected(first_run);  // nothing reads the registry before restart

  // The replayed trace's first arrival lands on the new start instant:
  // the rates stay as they were while only that event has happened.
  generator.start();
  sim.run_until(sim.now());
  auto after_restart = GaugeModel::loadgen_series(registry);
  EXPECT_EQ(after_restart["loadgen_offered_requests"], "3");
  after_restart["loadgen_offered_requests"] =
      first_run.at("loadgen_offered_requests");
  after_restart["loadgen_inflight"] = first_run.at("loadgen_inflight");
  EXPECT_EQ(after_restart, first_run);

  model.start = sim.now();
  sim.run();
  model.expect_gauges(registry);
}

TEST(Generator, SloRowsKeepNameOrderAmongTiedFunctions) {
  // First offered out of name order, with ties on offered counts: rows
  // sort by offered, ties by name, as they did when every request looked
  // its function up by name.
  const std::vector<std::string> order = {"zeta", "mid", "hot",   "alpha",
                                          "zeta", "hot", "alpha", "mid",
                                          "hot"};
  std::vector<TraceEvent> trace;
  for (std::size_t i = 0; i < order.size(); ++i) {
    trace.push_back(TraceEvent{microseconds(10) * static_cast<SimTime>(i),
                               order[i], 64});
  }
  sim::Simulator sim;
  EchoService echo{sim, microseconds(5)};
  LoadGenerator generator(sim, LoadGenConfig{}, trace, echo.sink());
  generator.start();
  sim.run();

  const SloReport report = generator.slo().report(milliseconds(1));
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  for (const SloReport::FnRow& row : report.per_function) {
    rows.emplace_back(row.function, row.offered);
  }
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"hot", 3}, {"alpha", 2}, {"mid", 2}, {"zeta", 2}};
  EXPECT_EQ(rows, want);

  framework::MetricsRegistry registry;
  generator.slo().export_to(registry, milliseconds(1));
  EXPECT_EQ(registry.render(),
            "loadgen_goodput_rps{fn=\"alpha\"} 2000\n"
            "loadgen_goodput_rps{fn=\"hot\"} 3000\n"
            "loadgen_goodput_rps{fn=\"mid\"} 2000\n"
            "loadgen_goodput_rps{fn=\"zeta\"} 2000\n"
            "loadgen_offered_total{fn=\"alpha\"} 2\n"
            "loadgen_offered_total{fn=\"hot\"} 3\n"
            "loadgen_offered_total{fn=\"mid\"} 2\n"
            "loadgen_offered_total{fn=\"zeta\"} 2\n"
            "loadgen_violations_total{fn=\"alpha\"} 0\n"
            "loadgen_violations_total{fn=\"hot\"} 0\n"
            "loadgen_violations_total{fn=\"mid\"} 0\n"
            "loadgen_violations_total{fn=\"zeta\"} 0\n");
}

TEST(Generator, FixedRateMatchesPeriodicTimerArrivals) {
  // The exact property the supp_overload port relies on: the fixed-rate
  // generator reproduces a PeriodicTimer(1e9/rate) arrival-for-arrival.
  const double rate = 80000.0;
  const SimDuration window = milliseconds(10);

  std::vector<SimTime> timer_times;
  {
    sim::Simulator sim;
    const SimDuration gap = static_cast<SimDuration>(1e9 / rate);
    sim::PeriodicTimer timer(sim, gap,
                             [&] { timer_times.push_back(sim.now()); });
    timer.start();
    sim.run_until(window);
    timer.stop();
  }

  std::vector<SimTime> generator_times;
  {
    sim::Simulator sim;
    LoadGenConfig config;
    config.arrivals = ArrivalSpec::fixed(rate);
    LoadGenerator generator(sim, config, uniform_functions(1),
                            [&](const Request&, CompletionFn done) {
                              generator_times.push_back(sim.now());
                              done(true);
                            });
    generator.start();
    sim.run_until(window);
    generator.stop();
  }
  EXPECT_EQ(timer_times, generator_times);
}

// ------------------------------------------------------------------ SLO

TEST(Slo, ReportCountsGoodputAndViolations) {
  SloTracker tracker(SloConfig{milliseconds(1)});
  // Two on-time successes, one late success, one failure.
  tracker.on_offered("a");
  tracker.on_complete("a", 0, microseconds(100), true);
  tracker.on_offered("a");
  tracker.on_complete("a", 0, microseconds(900), true);
  tracker.on_offered("a");
  tracker.on_complete("a", 0, milliseconds(5), true);  // late
  tracker.on_offered("b");
  tracker.on_complete("b", 0, microseconds(10), false);  // failed

  const SloReport report = tracker.report(seconds(1));
  EXPECT_EQ(report.offered, 4u);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.late, 1u);
  EXPECT_DOUBLE_EQ(report.goodput_rps, 2.0);
  EXPECT_DOUBLE_EQ(report.violation_fraction, 0.5);
  ASSERT_EQ(report.per_function.size(), 2u);
  EXPECT_EQ(report.per_function[0].function, "a");  // sorted by offered
  EXPECT_EQ(report.per_function[0].violations, 1u);
  EXPECT_EQ(report.per_function[1].violations, 1u);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("violations"), std::string::npos);
  EXPECT_NE(text.find("goodput"), std::string::npos);
}

TEST(Slo, CoordinatedOmissionStalledServerInflatesRecordedTail) {
  // A server that wedges for 200 ms mid-run. The open loop keeps
  // offering through the stall, and intended-arrival accounting charges
  // the stall to every request that arrived during it.
  sim::Simulator sim;
  EchoService server{sim, microseconds(200)};
  server.stall_from = milliseconds(100);
  server.stall_until = milliseconds(300);

  LoadGenConfig config;
  config.arrivals = ArrivalSpec::fixed(1000.0);
  config.duration = milliseconds(500);
  config.slo.deadline = milliseconds(5);
  LoadGenerator generator(sim, config, uniform_functions(1), server.sink());
  generator.start();
  sim.run();
  ASSERT_TRUE(generator.drained());
  EXPECT_EQ(generator.offered(), 500u);

  // ~200 requests were due during the stall; the recorded tail holds
  // their full wait (up to 200 ms).
  EXPECT_GT(generator.slo().latency().p99(),
            static_cast<double>(milliseconds(100)));

  const SloReport report = generator.report();
  EXPECT_GT(report.violation_fraction, 0.3);  // the stall is not hidden
  EXPECT_LT(report.violation_fraction, 0.6);
}

}  // namespace
}  // namespace lnic::loadgen
