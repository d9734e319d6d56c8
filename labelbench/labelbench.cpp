// labelbench: runs one workload of the labeling benchmark (README.md).
//
// One closed-loop client in one process: it submits one labeling batch,
// waits for every label, and repeats until --seconds of batch time are
// measured. The three workloads share the paper alphabet and m = 2:
//
//   engine-alu16     SynthesisEvaluator::evaluate_many on a thread pool
//   fleet-alu16      the same batch through LoopbackCluster + EvalCoordinator
//   pipeline-mont16  FlowGenPipeline::run with a pre-filled QorStore
//
// Every layer is measured from outside: timed calls into its public
// functions, its stats accessors, the flowgen_* metrics it already exports
// and, on traced repetitions, the Chrome trace it writes. A seeded sample of
// the labels is recomputed by an oracle that bypasses the engine
// (opt::apply_spec step by step, then map::evaluate_qor) and checked for
// equivalence with the source design by random simulation.
//
// The program writes raw measurements as one JSON file (--raw); run.py turns
// them into the benchmark's metrics and the per-layer table.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aig/analysis.hpp"
#include "aig/simulate.hpp"
#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "core/pipeline.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "map/mapper.hpp"
#include "opt/registry.hpp"
#include "service/coordinator.hpp"
#include "service/loopback.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace flowgen;
using Clock = std::chrono::steady_clock;

constexpr unsigned kRepetitions = 2;  // m: every flow uses each pass twice
// Load comes from one process with at most this many threads or workers.
constexpr std::size_t kMaxThreads = 4;
// Random-simulation width of the oracle's equivalence check: 64 words =
// 4096 patterns per output, eight times what the unit tests use.
constexpr std::size_t kOracleWords = 64;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ options --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool plant_wrong_label = false;
  std::size_t threads = 0;  ///< min(nproc, kMaxThreads)
  std::string work_dir;
  std::string raw_path;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "labelbench: %s\n"
               "usage: labelbench --workload engine-alu16|fleet-alu16|"
               "pipeline-mont16 --seed N --seconds S --trace 0|1 "
               "--work DIR --raw FILE [--size full|tiny] "
               "[--plant-wrong-label]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-label") {
      o.plant_wrong_label = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") {
          usage_error("--size takes full or tiny");
        }
        o.tiny = value == "tiny";
      } else if (flag == "--work") {
        o.work_dir = value;
      } else if (flag == "--raw") {
        o.raw_path = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload != "engine-alu16" && o.workload != "fleet-alu16" &&
      o.workload != "pipeline-mont16") {
    usage_error("unknown workload '" + o.workload + "'");
  }
  if (o.work_dir.empty() || o.raw_path.empty()) {
    usage_error("--work and --raw are required");
  }
  if (o.seconds <= 0) usage_error("--seconds must be positive");
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::size_t nproc =
      ::sched_getaffinity(0, sizeof set, &set) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&set))
          : std::max(1u, std::thread::hardware_concurrency());
  o.threads = std::min(nproc, kMaxThreads);
  return o;
}

// -------------------------------------------------------------- sizes --

struct Sizes {
  std::string design;
  std::size_t batch_flows = 0;    ///< engine / fleet batch
  std::size_t oracle_flows = 0;   ///< engine / fleet oracle sample
  std::size_t setup_samples = 0;  ///< extra set-ups timed before the reps
  // pipeline-mont16
  std::size_t initial_labeled = 0;
  std::size_t retrain_every = 0;
  std::size_t later_rounds = 0;
  std::size_t pool_flows = 0;
  std::size_t per_side = 0;
  std::size_t steps_per_round = 0;
  std::size_t conv_filters = 16;
};

Sizes sizes_for(const Options& o) {
  Sizes s;
  if (o.workload == "pipeline-mont16") {
    s.design = o.tiny ? "mont:6" : "mont16";
    s.setup_samples = o.tiny ? 2 : 10;
    s.initial_labeled = o.tiny ? 8 : 24;
    s.retrain_every = o.tiny ? 4 : 12;
    s.later_rounds = 2;
    s.pool_flows = o.tiny ? 60 : 600;
    s.per_side = o.tiny ? 2 : 6;
    s.steps_per_round = o.tiny ? 10 : 150;
    return s;
  }
  // 600 flows overflow the default 256 MiB prefix-cache budget on alu16,
  // as the 1000-flow reference batch does (snapshots get evicted).
  s.design = o.tiny ? "alu:6" : "alu16";
  s.batch_flows = o.tiny ? 24 : 600;
  s.oracle_flows = o.tiny ? 4 : 8;
  // Engine set-up is a fraction of a millisecond: many samples steady it.
  s.setup_samples = o.tiny ? 2 : (o.workload == "fleet-alu16" ? 10 : 40);
  return s;
}

// --------------------------------------------------------------- json --

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Insertion-ordered JSON object under construction.
class JsonObject {
public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      a += (i ? "," : "") + json_number(vs[i]);
    }
    return raw(key, a + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(key) + ":" + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

private:
  std::string body_;
};

// --------------------------------------------------------------- reps --

/// What one repetition measured. Labels stay in memory for the oracle and
/// the cross-repetition comparison; `scalars` carries workload extras.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<core::Flow> flows;
  std::vector<map::QoR> labels;
  std::size_t failed = 0;  ///< errored, quarantined or missing labels
  std::string error;
  std::string metrics_text;
  std::string trace_file;
  std::uint64_t window_begin_us = 0;
  std::uint64_t window_end_us = 0;
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<double> shard_ms;
};

/// A label that cannot be a mapping result (zero area or no cells).
bool missing(const map::QoR& q) {
  return !(q.area_um2 > 0.0) || q.num_cells == 0;
}

void count_missing(Rep& rep) {
  for (const map::QoR& q : rep.labels) {
    if (missing(q)) ++rep.failed;
  }
}

/// Zero every counter a repetition reads, so each one starts from nothing
/// (forked workers inherit the parent's registry as it is at fork time).
void reset_layer_counters() {
  telemetry::reset_all();
  aig::reset_analysis_counters();
}

struct EngineSetup;
struct FleetSetup;

class Bench {
public:
  explicit Bench(Options o) : o_(std::move(o)), sizes_(sizes_for(o_)) {}

  int run();

private:
  std::string trace_path(std::size_t rep_index) const {
    return (fs::path(o_.work_dir) / ("trace-" + std::to_string(rep_index) +
                                     ".json"))
        .string();
  }
  void begin_trace(Rep& rep, std::size_t rep_index) {
    if (!rep.traced) return;
    rep.trace_file = trace_path(rep_index);
    fs::remove(rep.trace_file);
    if (!telemetry::start_tracing(rep.trace_file)) {
      throw std::runtime_error("cannot open trace file " + rep.trace_file);
    }
  }

  std::vector<core::Flow> sample_batch() const {
    core::FlowSpace space(kRepetitions);
    util::Rng rng(o_.seed);
    return space.sample_unique(sizes_.batch_flows, rng);
  }

  EngineSetup engine_setup();
  FleetSetup fleet_setup();
  std::unique_ptr<core::FlowGenPipeline> pipeline_setup(const std::string& dir);
  void setup_sample();
  Rep engine_rep(bool traced, std::size_t rep_index);
  Rep fleet_rep(bool traced, std::size_t rep_index);
  Rep pipeline_rep(bool traced, std::size_t rep_index);
  Rep rep(bool traced, std::size_t rep_index) {
    if (o_.workload == "engine-alu16") return engine_rep(traced, rep_index);
    if (o_.workload == "fleet-alu16") return fleet_rep(traced, rep_index);
    return pipeline_rep(traced, rep_index);
  }

  // pipeline-mont16 helpers
  core::PipelineConfig pipeline_config(const std::string& store_dir) const;
  void prefill_store();
  std::string fresh_store_copy(const std::string& name);

  struct OracleOutcome {
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> details;
  };
  OracleOutcome check_labels(std::vector<Rep>& reps) const;

  Options o_;
  Sizes sizes_;
  std::vector<core::Flow> batch_;
  std::string prefill_dir_;
  std::size_t store_copies_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> elaborate_ms_;
  std::vector<double> attach_ms_;
  std::vector<double> fork_handshake_ms_;
};

// ------------------------------------------------------------ set-ups --
//
// What a user pays before the first flow is dispatched. Each set-up is
// timed into setup_s_ (and its parts into the per-layer samples); the
// extra set-ups of setup_sample() are discarded, a repetition keeps its own.

struct EngineSetup {
  std::unique_ptr<core::SynthesisEvaluator> evaluator;
  std::unique_ptr<util::ThreadPool> pool;
};

EngineSetup Bench::engine_setup() {
  const auto t0 = Clock::now();
  aig::Aig design = designs::make_design(sizes_.design);
  const auto t1 = Clock::now();
  EngineSetup s;
  s.evaluator = std::make_unique<core::SynthesisEvaluator>(std::move(design));
  s.pool = std::make_unique<util::ThreadPool>(o_.threads);
  const auto t2 = Clock::now();
  elaborate_ms_.push_back(seconds_between(t0, t1) * 1e3);
  setup_s_.push_back(seconds_between(t0, t2));
  return s;
}

struct FleetSetup {
  std::unique_ptr<service::LoopbackCluster> cluster;
  /// Declared after the cluster so it is destroyed (its loop joined) first.
  std::unique_ptr<service::EvalCoordinator> coordinator;
};

FleetSetup Bench::fleet_setup() {
  // The workers elaborate the design themselves, inside fork + handshake;
  // the parent times one elaboration for designs.elaborate_ms.
  const auto e0 = Clock::now();
  (void)designs::make_design(sizes_.design);
  elaborate_ms_.push_back(seconds_between(e0, Clock::now()) * 1e3);
  service::WorkerOptions worker;
  worker.design_id = sizes_.design;
  const auto t0 = Clock::now();
  FleetSetup s;
  s.cluster = std::make_unique<service::LoopbackCluster>(o_.threads, worker);
  s.coordinator = std::make_unique<service::EvalCoordinator>(
      s.cluster->take_workers(), sizes_.design);
  const double seconds = seconds_between(t0, Clock::now());
  setup_s_.push_back(seconds);
  fork_handshake_ms_.push_back(seconds * 1e3);
  return s;
}

/// Elaboration plus pipeline construction, which attaches the store in
/// `dir`. The store attach is also timed on its own, on a throwaway copy,
/// outside set-up time.
std::unique_ptr<core::FlowGenPipeline> Bench::pipeline_setup(
    const std::string& dir) {
  {
    core::QorStoreConfig config;
    config.dir = fresh_store_copy("attach");
    const auto a0 = Clock::now();
    core::QorStore probe(std::move(config));
    attach_ms_.push_back(seconds_between(a0, Clock::now()) * 1e3);
  }
  const auto t0 = Clock::now();
  aig::Aig design = designs::make_design(sizes_.design);
  const auto t1 = Clock::now();
  auto pipeline = std::make_unique<core::FlowGenPipeline>(
      std::move(design), pipeline_config(dir));
  elaborate_ms_.push_back(seconds_between(t0, t1) * 1e3);
  setup_s_.push_back(seconds_between(t0, Clock::now()));
  return pipeline;
}

void Bench::setup_sample() {
  if (o_.workload == "engine-alu16") {
    (void)engine_setup();
  } else if (o_.workload == "fleet-alu16") {
    fleet_setup().coordinator->shutdown_workers();
  } else {
    (void)pipeline_setup(fresh_store_copy("setup"));
  }
}

// ------------------------------------------------------------- engine --

Rep Bench::engine_rep(bool traced, std::size_t rep_index) {
  reset_layer_counters();
  Rep rep;
  rep.traced = traced;
  rep.flows = batch_;
  begin_trace(rep, rep_index);
  const EngineSetup setup = engine_setup();
  rep.setup_s = setup_s_.back();

  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const std::uint64_t ts0 = telemetry::trace_now_us();
  const auto b0 = Clock::now();
  try {
    rep.labels = setup.evaluator->evaluate_many(rep.flows, setup.pool.get());
  } catch (const std::exception& e) {
    rep.error = e.what();
    rep.labels.assign(rep.flows.size(), map::QoR{});
  }
  const auto b1 = Clock::now();
  const std::uint64_t ts1 = telemetry::trace_now_us();
  rep.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
  rep.wall_s = seconds_between(b0, b1);
  rep.window_begin_us = ts0;
  rep.window_end_us = ts1;
  telemetry::emit_trace_event("bench", "batch", ts0, ts1 - ts0);
  telemetry::stop_tracing();
  rep.metrics_text = telemetry::render_prometheus();
  count_missing(rep);
  return rep;
}

// -------------------------------------------------------------- fleet --

Rep Bench::fleet_rep(bool traced, std::size_t rep_index) {
  reset_layer_counters();
  Rep rep;
  rep.traced = traced;
  rep.flows = batch_;
  // Tracing starts before the fork so the workers inherit the trace file
  // and append their spans to it.
  begin_trace(rep, rep_index);
  const double self0 = cpu_seconds(RUSAGE_SELF);
  const double children0 = cpu_seconds(RUSAGE_CHILDREN);
  {
    const FleetSetup setup = fleet_setup();
    rep.setup_s = setup_s_.back();
    service::EvalCoordinator& coordinator = *setup.coordinator;

    service::BatchReport report;
    const std::uint64_t ts0 = telemetry::trace_now_us();
    const auto b0 = Clock::now();
    try {
      rep.labels = coordinator.evaluate_many(rep.flows, nullptr, &report);
    } catch (const std::exception& e) {
      rep.error = e.what();
      rep.labels.assign(rep.flows.size(), map::QoR{});
    }
    const auto b1 = Clock::now();
    const std::uint64_t ts1 = telemetry::trace_now_us();
    rep.wall_s = seconds_between(b0, b1);
    rep.window_begin_us = ts0;
    rep.window_end_us = ts1;
    telemetry::emit_trace_event("bench", "batch", ts0, ts1 - ts0);
    for (const std::size_t i : report.quarantined) {
      rep.labels[i] = map::QoR{};  // counted as missing below
    }
    // Scrape the fleet before it shuts down: worker counters die with it.
    const service::CoordinatorStats stats = coordinator.stats();
    rep.metrics_text = coordinator.fleet_metrics_text();
    rep.shard_ms = stats.shard_ms;
    rep.scalars = {
        {"flows_dispatched", static_cast<double>(stats.flows_dispatched)},
        {"workers", static_cast<double>(setup.cluster->size())},
    };
    coordinator.shutdown_workers();
  }  // the coordinator joins its loop, then the cluster reaps every worker
  telemetry::stop_tracing();
  // Reaped workers are in RUSAGE_CHILDREN now: the fleet's CPU counts.
  rep.cpu_s = (cpu_seconds(RUSAGE_SELF) - self0) +
              (cpu_seconds(RUSAGE_CHILDREN) - children0);
  count_missing(rep);
  return rep;
}

// ----------------------------------------------------------- pipeline --

core::PipelineConfig Bench::pipeline_config(
    const std::string& store_dir) const {
  core::PipelineConfig c;
  c.repetitions = kRepetitions;
  c.training_flows =
      sizes_.initial_labeled + sizes_.later_rounds * sizes_.retrain_every;
  c.sample_flows = sizes_.pool_flows;
  c.initial_labeled = sizes_.initial_labeled;
  c.retrain_every = sizes_.retrain_every;
  c.num_angel = sizes_.per_side;
  c.num_devil = sizes_.per_side;
  c.steps_per_round = sizes_.steps_per_round;
  c.classifier.conv_filters = sizes_.conv_filters;
  c.seed = o_.seed;
  c.threads = o_.threads;
  c.service.qor_store_dir = store_dir;
  return c;
}

/// Label the pipeline's first round into a store, outside any timing. The
/// flows are the ones FlowGenPipeline::run samples first: the same space,
/// the same seed, the same sample_unique call.
void Bench::prefill_store() {
  prefill_dir_ = (fs::path(o_.work_dir) / "store-prefill").string();
  fs::remove_all(prefill_dir_);
  const core::PipelineConfig c = pipeline_config(prefill_dir_);
  core::FlowSpace space(kRepetitions);
  util::Rng rng(c.seed);
  std::vector<core::Flow> all =
      space.sample_unique(c.training_flows + c.sample_flows, rng);
  all.resize(c.initial_labeled);
  core::QorStoreConfig config;
  config.dir = prefill_dir_;
  config.writer_name = "prefill";
  auto store = std::make_shared<core::QorStore>(std::move(config));
  core::SynthesisEvaluator evaluator(designs::make_design(sizes_.design));
  evaluator.attach_store(store);
  util::ThreadPool pool(o_.threads);
  (void)evaluator.evaluate_many(all, &pool);
  store->flush();
}

std::string Bench::fresh_store_copy(const std::string& name) {
  const fs::path dir =
      fs::path(o_.work_dir) /
      ("store-" + name + "-" + std::to_string(store_copies_++));
  fs::remove_all(dir);
  fs::copy(prefill_dir_, dir, fs::copy_options::recursive);
  return dir.string();
}

Rep Bench::pipeline_rep(bool traced, std::size_t rep_index) {
  const std::string dir = fresh_store_copy("rep");
  reset_layer_counters();
  Rep rep;
  rep.traced = traced;
  begin_trace(rep, rep_index);
  const std::unique_ptr<core::FlowGenPipeline> pipeline = pipeline_setup(dir);
  rep.setup_s = setup_s_.back();

  std::vector<core::RoundStats> rounds;
  std::uint64_t last_round_us = 0;
  pipeline->set_round_callback([&](const core::RoundStats& s) {
    rounds.push_back(s);
    last_round_us = telemetry::trace_now_us();
  });
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const std::uint64_t ts0 = telemetry::trace_now_us();
  const auto r0 = Clock::now();
  core::PipelineResult result;
  try {
    result = pipeline->run();
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  const auto r1 = Clock::now();
  const std::uint64_t ts1 = telemetry::trace_now_us();
  rep.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
  rep.wall_s = seconds_between(r0, r1);
  rep.window_begin_us = ts0;
  rep.window_end_us = ts1;
  if (last_round_us == 0) last_round_us = ts1;
  telemetry::emit_trace_event("bench", "run", ts0, ts1 - ts0);
  telemetry::emit_trace_event("bench", "final_probe", last_round_us,
                              ts1 - last_round_us);
  telemetry::stop_tracing();
  rep.metrics_text = telemetry::render_prometheus();

  // Everything the run labeled: the training set, then angel and devil
  // flows. Short selections count as missing labels.
  const core::PipelineConfig c = pipeline_config(dir);
  rep.flows = result.labeled_flows;
  rep.labels = result.labeled_qor;
  rep.flows.resize(c.training_flows);
  rep.labels.resize(c.training_flows);
  const auto add_selected = [&](const std::vector<core::Flow>& flows,
                                const std::vector<map::QoR>& qor,
                                std::size_t want) {
    for (std::size_t i = 0; i < want; ++i) {
      rep.flows.push_back(i < flows.size() ? flows[i] : core::Flow{});
      rep.labels.push_back(i < qor.size() ? qor[i] : map::QoR{});
    }
  };
  add_selected(result.angel_flows, result.angel_qor, c.num_angel);
  add_selected(result.devil_flows, result.devil_qor, c.num_devil);
  count_missing(rep);

  double label_s = 0.0;
  double train_s = 0.0;
  for (const core::RoundStats& s : rounds) {
    label_s += s.synthesis_seconds;
    train_s += s.train_seconds;
  }
  rep.scalars = {
      {"label_s", label_s},
      {"train_s", train_s},
      {"train_steps",
       static_cast<double>(rounds.size() * c.steps_per_round)},
      {"final_probe_s", static_cast<double>(ts1 - last_round_us) * 1e-6},
      {"paper_accuracy", result.paper_accuracy},
  };
  return rep;
}

// ------------------------------------------------------------- oracle --

/// Recompute a seeded sample of labels without the engine and compare.
/// Every repetition labels the same flows, so the oracle runs once per
/// sampled flow and each repetition's label is checked against it; the
/// rest of every repetition must match the first one exactly.
Bench::OracleOutcome Bench::check_labels(std::vector<Rep>& reps) const {
  OracleOutcome out;
  if (reps.empty()) return out;
  const std::vector<core::Flow>& flows = reps.front().flows;
  for (Rep& rep : reps) {
    if (rep.flows != flows) {
      rep.failed += rep.flows.size();
      out.details.push_back("repetition labeled a different flow set");
      continue;
    }
    if (&rep == &reps.front()) continue;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!missing(rep.labels[i]) && !missing(reps.front().labels[i]) &&
          !(rep.labels[i] == reps.front().labels[i])) {
        ++rep.failed;
        out.details.push_back("flow " + flows[i].key() +
                              " labeled differently across repetitions");
      }
    }
  }

  // The sample. Pipeline runs draw from each part of what they labeled:
  // store-served round one, later rounds, angel flows, devil flows.
  util::Rng rng(o_.seed ^ 0x5eed0facadeull);
  std::vector<std::size_t> sample;
  const auto pick = [&](std::size_t begin, std::size_t end, std::size_t k) {
    std::vector<std::size_t> idx(end - begin);
    std::iota(idx.begin(), idx.end(), begin);
    rng.shuffle(idx);
    for (std::size_t i = 0; i < std::min(k, idx.size()); ++i) {
      sample.push_back(idx[i]);
    }
  };
  if (o_.workload == "pipeline-mont16") {
    const std::size_t initial = sizes_.initial_labeled;
    const std::size_t training =
        initial + sizes_.later_rounds * sizes_.retrain_every;
    pick(0, initial, 2);
    pick(initial, training, 2);
    pick(training, training + sizes_.per_side, 1);
    pick(training + sizes_.per_side, flows.size(), 1);
  } else {
    pick(0, flows.size(), sizes_.oracle_flows);
  }

  const aig::Aig source = designs::make_design(sizes_.design);
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  struct Truth {
    map::QoR qor;
    bool equivalent = false;
    std::string error;
  };
  std::vector<Truth> truth(sample.size());
  {
    util::ThreadPool pool(o_.threads);
    pool.parallel_for(sample.size(), [&](std::size_t k) {
      try {
        aig::Aig g = source;
        for (const opt::StepId step : flows[sample[k]].steps) {
          g = opt::apply_spec(g, registry.spec(step));
        }
        truth[k].qor = map::evaluate_qor(g);
        util::Rng sim(o_.seed + k);
        truth[k].equivalent =
            aig::random_equivalent(source, g, sim, kOracleWords);
      } catch (const std::exception& e) {
        truth[k].error = e.what();
      }
    });
  }

  for (std::size_t r = 0; r < reps.size(); ++r) {
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const std::size_t i = sample[k];
      // The benchmark's own comparison copy of the label; the self-check
      // corrupts this copy, never the program's state.
      map::QoR label = reps[r].labels[i];
      if (o_.plant_wrong_label && r == 0 && k == 0) label.area_um2 += 1.0;
      ++out.checked;
      std::string why;
      if (!truth[k].error.empty()) {
        why = "oracle failed: " + truth[k].error;
      } else if (!truth[k].equivalent) {
        why = "optimized graph not equivalent to the source design";
      } else if (!(label == truth[k].qor)) {
        why = "label " + label.to_string() + " != oracle " +
              truth[k].qor.to_string();
      }
      if (!why.empty()) {
        ++out.mismatches;
        if (!missing(reps[r].labels[i])) ++reps[r].failed;
        out.details.push_back("rep " + std::to_string(r) + " flow " +
                              flows[i].key() + ": " + why);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- run --

int Bench::run() {
  fs::create_directories(o_.work_dir);
  const auto start = Clock::now();
  if (o_.workload == "pipeline-mont16") {
    prefill_store();
  } else {
    batch_ = sample_batch();
  }
  for (std::size_t i = 0; i < sizes_.setup_samples; ++i) setup_sample();
  reset_layer_counters();

  // Closed loop: repetitions until --seconds of batch time are measured,
  // stopping early rather than overshooting by more than half a batch.
  // Traced runs make one untraced and one traced repetition of the same
  // batch: the pair prices the tracing overhead.
  std::vector<Rep> reps;
  double measured = 0.0;
  for (;;) {
    const bool traced = o_.trace && reps.size() == 1;
    reps.push_back(rep(traced, reps.size()));
    const Rep& last = reps.back();
    measured += last.wall_s;
    if (!last.error.empty()) break;
    if (o_.trace ? reps.size() == 2
                 : measured + last.wall_s * 0.5 >= o_.seconds) {
      break;
    }
  }
  // Peak memory of the measured phase, before the oracle allocates.
  const double peak_self = peak_rss_mb(RUSAGE_SELF);
  const double peak_children = peak_rss_mb(RUSAGE_CHILDREN);

  const OracleOutcome oracle = check_labels(reps);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string rep_json = "[";
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const Rep& rep = reps[r];
    attempted += rep.flows.size();
    failed += std::min(rep.failed, rep.flows.size());
    JsonObject j;
    j.boolean("traced", rep.traced)
        .num("setup_s", rep.setup_s)
        .num("wall_s", rep.wall_s)
        .num("cpu_s", rep.cpu_s)
        .num("flows", static_cast<double>(rep.flows.size()))
        .num("failed", static_cast<double>(rep.failed))
        .str("error", rep.error)
        .num("window_begin_us", static_cast<double>(rep.window_begin_us))
        .num("window_end_us", static_cast<double>(rep.window_end_us))
        .str("trace_file", rep.trace_file)
        .nums("shard_ms", rep.shard_ms);
    JsonObject scalars;
    for (const auto& [k, v] : rep.scalars) scalars.num(k, v);
    j.raw("scalars", scalars.dump());
    // Layer counters are read from traced repetitions (and from the last
    // repetition, so untraced runs can still be inspected).
    if (rep.traced || r + 1 == reps.size()) {
      j.str("metrics_text", rep.metrics_text);
    }
    rep_json += (r ? "," : "") + j.dump();
  }
  rep_json += "]";
  std::string details = "[";
  for (std::size_t i = 0; i < oracle.details.size(); ++i) {
    details += (i ? "," : "") + json_string(oracle.details[i]);
  }
  details += "]";

  JsonObject out;
  out.str("workload", o_.workload)
      .num("seed", static_cast<double>(o_.seed))
      .num("threads", static_cast<double>(o_.threads))
      .str("design", sizes_.design)
      .str("size", o_.tiny ? "tiny" : "full")
      .str("build_type", LABELBENCH_BUILD_TYPE)
      .str("compiler", LABELBENCH_COMPILER)
      .str("flowgen_spans", LABELBENCH_SPANS)
      .str("flowgen_failpoints", LABELBENCH_FAILPOINTS)
      .nums("setup_s", setup_s_)
      .nums("elaborate_ms", elaborate_ms_)
      .nums("attach_ms", attach_ms_)
      .nums("fork_handshake_ms", fork_handshake_ms_)
      .num("peak_rss_self_mb", peak_self)
      .num("peak_rss_children_mb", peak_children)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("oracle_checked", static_cast<double>(oracle.checked))
      .num("oracle_mismatches", static_cast<double>(oracle.mismatches))
      .raw("oracle_details", details)
      .num("elapsed_s", seconds_between(start, Clock::now()))
      .raw("reps", rep_json);
  std::ofstream f(o_.raw_path);
  f << out.dump() << "\n";
  if (!f) {
    std::fprintf(stderr, "labelbench: cannot write %s\n", o_.raw_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  if (std::getenv("FLOWGEN_LOG") == nullptr) {
    util::set_log_level(util::LogLevel::kWarn);
  }
  try {
    return Bench(std::move(options)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "labelbench: %s\n", e.what());
    return 1;
  }
}
