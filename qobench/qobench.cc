// qobench: end-to-end benchmark of MTMLF-QO as a DBMS optimizer sees it.
//
//   qobench --workload <callout-miss|callout-hit> --seed <n>
//           --seconds <s> --trace <0|1> [--train-seed <n>]
//           [--trace-out <path>]
//
// Every workload shares one set-up: build the IMDB-like database and its
// statistics, label a training workload, pre-train the Enc_i encoders and
// train MTMLF-QO jointly. The training seed fixes that set-up; --seed
// generates the workload's own inputs (plan pools, the join-order decision
// set, request streams), so a hold-out seed gives an independent run on the
// same model. The set-up is repeated kSetups times and its median is
// reported, because one set-up is too noisy to compare; each set-up is
// released before the next is built.
//
//   callout-miss  closed-loop clients -> SocketFrontEnd -> InferenceServer,
//                 cycling over more distinct plans than the prediction
//                 cache holds, so every callout runs a forward pass.
//   callout-hit   closed-loop clients -> router SocketFrontEnd ->
//                 RouterFrontEnd (affinity) -> two replicas, Zipf-skewed
//                 over a working set that fits each replica's cache.
//
// Both workloads then decide a join-order decision set untimed with
// MtmlfQo::PredictJoinOrder and score each order by its true cost.
//
// The program is driven only through public entry points. With --trace 0
// the last stdout line is a JSON object with the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, measured in a separate traced
// phase whose spans (recorded here, around calls into each module) are
// kept in memory and written to --trace-out at the end. Every served
// answer and every join order is checked against references computed
// apart from the timed path; a failed check makes "correct" false and the
// exit code non-zero.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "datagen/imdb_like.h"
#include "exec/cost_model.h"
#include "exec/join_counter.h"
#include "exec/simulator.h"
#include "featurize/plan_encoder.h"
#include "model/beam_search.h"
#include "model/mtmlf_qo.h"
#include "optimizer/baseline_card_est.h"
#include "optimizer/join_order.h"
#include "serve/cache.h"
#include "serve/ipc_client.h"
#include "serve/ipc_protocol.h"
#include "serve/ipc_server.h"
#include "serve/registry.h"
#include "serve/router/router.h"
#include "serve/server.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "train/evaluate.h"
#include "train/trainer.h"
#include "workload/dataset.h"
#include "workload/generator.h"

using namespace mtmlf;  // NOLINT
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload make-up. Sizes are fixed here, not derived from the machine, so
// two machines run the same work; see README.md for why each was chosen.
// ---------------------------------------------------------------------------

constexpr int kSetups = 3;                 // set-ups per run; setup_s = median
constexpr double kDbScale = 0.25;          // IMDB-like database scale
constexpr int kTrainQueries = 200;         // labeled training workload
constexpr int kSingleTablePerTable = 30;   // Enc_i pre-training queries
constexpr int kEncEpochs = 2;
constexpr int kJointEpochs = 3;
constexpr int kMinTables = 3;              // query table counts, all sets
constexpr int kMaxTables = 8;
constexpr double kMaxTrueCard = 1e5;       // as the training workload
constexpr int kEvalQueries = 120;          // labeled EvaluateEstimates set
constexpr int kDecisionQueries = 600;      // join-order decision set
// callout-miss cycles over 2x the default prediction-cache capacity of
// distinct plans, so a later change of that default still misses.
constexpr int kMissPlansPerQuery = 4;      // candidate plans per miss query
constexpr int kHitWorkingSet = 2048;       // callout-hit distinct plans
constexpr double kHitZipfSkew = 1.0;
// Closed-loop callout clients. Two, not one per core: the four cores also
// run the front ends, router forwarders and server workers, and with four
// clients the callout p99 swung 2-10x between runs on a shared host.
constexpr int kMaxClients = 2;
constexpr int kCheckThreads = 4;           // untimed checks and decisions
constexpr int kReplicas = 2;               // callout-hit fleet size
constexpr int kMissWarmup = 256;           // callouts before timing (miss)
constexpr int kMicroPlans = 128;           // plans per per-layer micro pass
constexpr int kMicroRounds = 5;
constexpr int kDecomposeQueries = 120;     // PredictJoinOrder decomposition
constexpr int kHealthProbes = 200;         // health round trips per client
// Callout records reserved (and touched) per client and timed second, so
// that peak_rss_mb does not grow with the number of callouts a run
// completes; a client would need callouts under 122 us to outgrow it.
constexpr size_t kRecordsPerClientSecond = 8192;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  uint64_t train_seed = 1;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "qobench: %s\nusage: qobench --workload "
               "<callout-miss|callout-hit> --seed <n> --seconds <s> "
               "--trace <0|1> [--train-seed <n>] [--trace-out <path>]\n",
               msg);
  std::exit(2);
}

uint64_t ParseU64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') Usage(what);
  return static_cast<uint64_t>(v);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = ParseU64(v, "bad --seed");
    } else if (k == "--seconds") {
      uint64_t s = ParseU64(v, "bad --seconds");
      if (s < 1 || s > 3600) Usage("--seconds out of range");
      a.seconds = static_cast<int>(s);
    } else if (k == "--trace") {
      uint64_t t = ParseU64(v, "bad --trace");
      if (t > 1) Usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (k == "--train-seed") {
      a.train_seed = ParseU64(v, "bad --train-seed");
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload != "callout-miss" && a.workload != "callout-hit") {
    Usage("unknown --workload");
  }
  return a;
}

// Distinct streams for the inputs one workload seed generates.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  return z * 0x94D049BB133111EBull + 1;
}

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, q);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from this file around calls into the library,
// kept in per-thread buffers and written out once at the end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;  // 0 = root
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  // One buffer per recording thread; ids are unique per buffer.
  class Buffer {
   public:
    Buffer(Tracer* tracer, uint64_t thread_index)
        : tracer_(tracer), next_id_(thread_index << 40) {}
    uint64_t NewId() { return ++next_id_; }
    void Add(const char* name, uint64_t id, uint64_t parent, int64_t start,
             int64_t end) {
      if (tracer_->enabled_) spans_.push_back({name, id, parent, start, end});
    }
    std::vector<Span>& spans() { return spans_; }

   private:
    Tracer* tracer_;
    uint64_t next_id_;
    std::vector<Span> spans_;
  };

  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(
        std::make_unique<Buffer>(this, static_cast<uint64_t>(buffers_.size())));
    return buffers_.back().get();
  }

  // JSON lines: {"name":..,"id":..,"parent":..,"start_ns":..,"end_ns":..}
  bool Write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    for (auto& b : buffers_) {
      for (const Span& s : b->spans()) {
        out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Times `fn` and records it as a span; returns seconds.
template <typename Fn>
double Timed(Tracer::Buffer* buf, const Tracer& tracer, const char* name,
             uint64_t parent, Fn&& fn) {
  int64_t t0 = tracer.Now();
  fn();
  int64_t t1 = tracer.Now();
  buf->Add(name, buf->NewId(), parent, t0, t1);
  return 1e-9 * static_cast<double>(t1 - t0);
}

// ---------------------------------------------------------------------------
// Output: every failed check is recorded; the run is correct iff none is.
// ---------------------------------------------------------------------------

struct Checks {
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (failures < 20) std::fprintf(stderr, "qobench: CHECK FAILED: %s\n",
                                    what.c_str());
    ++failures;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Shared set-up: database, statistics, training workload, trained model.
// ---------------------------------------------------------------------------

struct Trained {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<optimizer::BaselineCardEstimator> baseline;
  workload::Dataset train_set;
  std::shared_ptr<model::MtmlfQo> model;
  double build_s = 0, label_s = 0, pretrain_s = 0, joint_s = 0;
  double joint_examples = 0;
};

workload::GeneratorOptions QueryShape() {
  workload::GeneratorOptions g;
  g.min_tables = kMinTables;
  g.max_tables = kMaxTables;
  return g;
}

// Table counts of generated query sets follow a fixed 40-query cycle
// that matches the mix the generator yields once empty and oversized
// results are dropped (43% 3-table, 25% 4, 17% 5, 8% 6, 5% 7, 2% 8), so
// every prefix of a set has the same make-up whatever the seed.
constexpr int kTableCycle[40] = {3, 4, 5, 3, 6, 3, 4, 3, 5, 4, 3, 7, 3, 4,
                                 5, 3, 8, 3, 4, 3, 5, 6, 3, 4, 3, 5, 4, 3,
                                 7, 3, 4, 3, 5, 6, 3, 4, 3, 5, 4, 3};

workload::GeneratorOptions ShapeOf(size_t kept) {
  workload::GeneratorOptions g = QueryShape();
  g.min_tables = g.max_tables = kTableCycle[kept % 40];
  return g;
}

Trained BuildAndTrain(uint64_t train_seed, Tracer* tracer,
                      Tracer::Buffer* buf, uint64_t parent) {
  Trained t;
  t.build_s = Timed(buf, *tracer, "datagen.build", parent, [&] {
    Rng rng(train_seed);
    datagen::ImdbLikeOptions db_opts;
    db_opts.scale = kDbScale;
    auto db = datagen::BuildImdbLike(db_opts, &rng);
    MTMLF_CHECK(db.ok(), db.status().ToString().c_str());
    t.db = db.take();
    t.baseline = std::make_unique<optimizer::BaselineCardEstimator>(t.db.get());
  });
  t.label_s = Timed(buf, *tracer, "workload.label", parent, [&] {
    workload::DatasetOptions ds;
    ds.num_queries = kTrainQueries;
    ds.single_table_queries_per_table = kSingleTablePerTable;
    ds.generator = QueryShape();
    ds.max_true_card = kMaxTrueCard;
    ds.seed = train_seed + 7;
    auto r = workload::BuildDataset(t.db.get(), t.baseline.get(), ds);
    MTMLF_CHECK(r.ok(), r.status().ToString().c_str());
    t.train_set = r.take();
  });
  t.model = std::make_shared<model::MtmlfQo>(featurize::ModelConfig{},
                                             train_seed);
  int dbi = t.model->AddDatabase(t.db.get(), t.baseline.get());
  train::Trainer trainer(t.model.get());
  train::TrainOptions opts;
  opts.enc_pretrain_epochs = kEncEpochs;
  opts.joint_epochs = kJointEpochs;
  // The joint weights bench_table2 uses for MTMLF-QO (w_jo = 2).
  opts.weights = {1.0f, 1.0f, 2.0f};
  opts.seed = train_seed;
  t.pretrain_s = Timed(buf, *tracer, "train.pretrain", parent, [&] {
    Status st = trainer.PretrainFeaturizer(dbi, t.train_set, opts);
    MTMLF_CHECK(st.ok(), st.ToString().c_str());
  });
  t.joint_s = Timed(buf, *tracer, "train.joint", parent, [&] {
    Status st = trainer.TrainJoint({{dbi, &t.train_set}}, opts);
    MTMLF_CHECK(st.ok(), st.ToString().c_str());
  });
  t.joint_examples =
      static_cast<double>(t.train_set.split.train.size()) * kJointEpochs;
  return t;
}

// The labeled evaluation set of EvaluateEstimates (traced runs), generated
// from the workload seed. Only queries whose true result is non-empty are
// kept: an empty result clamps both sides of the q-error to one tuple,
// which pins the median at exactly 1. Queries above kMaxTrueCard rows are
// dropped as in the training workload.
workload::Dataset BuildEvalSet(const Trained& t, uint64_t seed) {
  workload::Dataset set;
  workload::WorkloadGenerator gen(t.db.get(), SubSeed(seed, 1));
  workload::QueryLabeler labeler(t.db.get(), t.baseline.get(), {});
  for (int generated = 0;
       static_cast<int>(set.queries.size()) < kEvalQueries; ++generated) {
    MTMLF_CHECK(generated < kEvalQueries * 40, "eval set: no progress");
    query::Query q = gen.GenerateQuery(ShapeOf(set.queries.size()));
    double card = 0.0;
    {
      exec::TrueCardinalityCache cache(t.db.get(), &q);
      auto r = cache.CardinalityOfTables(q.tables);
      if (!r.ok()) continue;
      card = r.value();
    }
    if (card < 1.0 || card > kMaxTrueCard) continue;
    auto lq = labeler.Label(q, /*with_optimal=*/true);
    if (!lq.ok()) continue;
    set.queries.push_back(std::move(lq.value()));
  }
  return set;
}

// ---------------------------------------------------------------------------
// True cost: LeftDeepOrderCost with the simulator's hardware constants on
// exact cardinalities. Noise-free, unlike SimulateOrderLatencyMs.
// ---------------------------------------------------------------------------

struct TrueCoster {
  const storage::Database* db;
  const query::Query* q;
  exec::TrueCardinalityCache cache;
  exec::CostModel hw{exec::ExecutionSimulator::Options::PerturbedHardware()};
  Status error;

  TrueCoster(const storage::Database* d, const query::Query* query)
      : db(d), q(query), cache(d, query) {}

  optimizer::SubsetCardFn Fn() {
    return [this](uint32_t mask) {
      auto r = cache.CardinalityOfMask(mask);
      if (!r.ok()) {
        if (error.ok()) error = r.status();
        return 1.0;
      }
      return r.value();
    };
  }
  Result<double> OrderCost(const std::vector<int>& order) {
    auto r = optimizer::LeftDeepOrderCost(*q, *db, hw, Fn(), order);
    if (!error.ok()) return error;
    return r;
  }
  Result<double> OracleCost() {
    auto r = optimizer::BestLeftDeepOrder(*q, *db, hw, Fn());
    if (!error.ok()) return error;
    if (!r.ok()) return r.status();
    return r.value().cost;
  }
};

bool IsPermutationOf(std::vector<int> order, std::vector<int> tables) {
  std::sort(order.begin(), order.end());
  std::sort(tables.begin(), tables.end());
  return order == tables;
}

// ---------------------------------------------------------------------------
// Callout inputs: a pool of distinct candidate plans over generated queries.
// ---------------------------------------------------------------------------

struct PoolPlan {
  size_t query;
  std::vector<int> order;
  query::PlanPtr plan;
};

struct QuerySet {
  std::vector<query::Query> queries;
  std::vector<double> true_card;  // root cardinality per query, exact
  std::vector<PoolPlan> plans;    // distinct fingerprints
  std::vector<int> baseline_plan;  // per query: its baseline plan, or -1
  int generated = 0;
  int dropped_empty = 0;
  int dropped_large = 0;
};

std::vector<int> RandomExecutableOrder(const query::Query& q, Rng* rng) {
  auto adj = q.AdjacencyMatrix();
  size_t m = q.tables.size();
  std::vector<bool> in(m, false);
  std::vector<int> order;
  size_t first = static_cast<size_t>(rng->UniformInt(0, m - 1));
  in[first] = true;
  order.push_back(q.tables[first]);
  while (order.size() < m) {
    std::vector<size_t> frontier;
    for (size_t j = 0; j < m; ++j) {
      if (in[j]) continue;
      for (size_t i = 0; i < m; ++i) {
        if (in[i] && adj[i][j]) {
          frontier.push_back(j);
          break;
        }
      }
    }
    if (frontier.empty()) return {};
    size_t pick = frontier[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(frontier.size()) - 1))];
    in[pick] = true;
    order.push_back(q.tables[pick]);
  }
  return order;
}

// Generates queries (non-empty, at most kMaxTrueCard rows) until the pool
// holds `num_plans` distinct plan fingerprints, `plans_per_query` per
// query: the baseline optimizer's order first, then random executable
// orders. Physical operators are chosen by the cost model on the baseline's
// estimates, as an optimizer would cost its candidates.
QuerySet BuildQuerySet(const Trained& t, uint64_t seed, int num_plans,
                             int plans_per_query) {
  QuerySet pool;
  workload::WorkloadGenerator gen(t.db.get(), SubSeed(seed, 2));
  Rng rng(SubSeed(seed, 3));
  const exec::CostModel planner;
  std::set<std::string> seen;
  while (static_cast<int>(pool.plans.size()) < num_plans) {
    MTMLF_CHECK(pool.generated < num_plans * 40, "callout pool: no progress");
    ++pool.generated;
    query::Query q = gen.GenerateQuery(ShapeOf(pool.queries.size()));
    if (!q.IsConnected() || q.tables.size() < 2) continue;
    double card = 0.0;
    {
      exec::TrueCardinalityCache cache(t.db.get(), &q);
      auto r = cache.CardinalityOfTables(q.tables);
      if (!r.ok()) continue;
      card = r.value();
    }
    if (card < 1.0) {
      ++pool.dropped_empty;
      continue;
    }
    if (card > kMaxTrueCard) {
      ++pool.dropped_large;
      continue;
    }
    size_t qi = pool.queries.size();
    pool.queries.push_back(std::move(q));
    pool.true_card.push_back(card);
    pool.baseline_plan.push_back(-1);
    const query::Query& qq = pool.queries.back();
    optimizer::SubsetCardFn est_subset = [&](uint32_t mask) {
      std::vector<int> subset;
      for (size_t i = 0; i < qq.tables.size(); ++i) {
        if (mask & (1u << i)) subset.push_back(qq.tables[i]);
      }
      return t.baseline->EstimateSubset(qq, subset);
    };
    exec::CardFn est = [&](const query::PlanNode& node) {
      return t.baseline->EstimateSubset(qq, node.BaseTables());
    };
    auto best = optimizer::BestLeftDeepOrder(qq, *t.db, planner, est_subset);
    int added = 0;
    for (int attempt = 0;
         attempt < 4 * plans_per_query && added < plans_per_query; ++attempt) {
      std::vector<int> order = attempt == 0 && best.ok()
                                   ? best.value().order
                                   : RandomExecutableOrder(qq, &rng);
      if (order.empty()) break;
      query::PlanPtr plan = query::MakeLeftDeepPlan(order);
      planner.AssignPhysicalOps(plan.get(), qq, *t.db, est);
      // Fingerprints are taken over the query in the pool, so they match
      // what the server computes for the same (query, plan).
      if (!seen.insert(serve::PlanFingerprint(0, qq, *plan)).second) continue;
      if (attempt == 0 && best.ok()) {
        pool.baseline_plan[qi] = static_cast<int>(pool.plans.size());
      }
      pool.plans.push_back({qi, std::move(order), std::move(plan)});
      ++added;
      if (static_cast<int>(pool.plans.size()) >= num_plans) break;
    }
  }
  return pool;
}

// Eager reference answer for one plan, outside any server.
struct RootAnswer {
  double card = 0.0;
  double cost = 0.0;
};

RootAnswer EagerRoot(const model::MtmlfQo& m, const query::Query& q,
                     const query::PlanNode& plan) {
  tensor::NoGradGuard guard;
  model::MtmlfQo::Forward fwd = m.Run(0, q, plan);
  return {m.NodeCardPredictions(fwd)[0], m.NodeCostPredictions(fwd)[0]};
}

// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

// `cap` threads, or fewer on a smaller machine.
int Threads(int cap) {
  unsigned hw = std::thread::hardware_concurrency();
  return std::min(hw == 0 ? 1 : static_cast<int>(hw), cap);
}

// ---------------------------------------------------------------------------
// Serving stack for the callout workloads, started with default Options.
// ---------------------------------------------------------------------------

struct Replica {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::SocketFrontEnd> front;
  std::string sock;
};

class ServingStack {
 public:
  // hit=false: one replica, clients dial its front end.
  // hit=true: kReplicas replicas behind a RouterFrontEnd with affinity
  // routing; clients dial the router's front end.
  ServingStack(std::shared_ptr<const model::MtmlfQo> model, bool hit,
               int tag)
      : hit_(hit) {
    std::string base = ".bench_build/qb" + std::to_string(getpid()) + "-" +
                       std::to_string(tag);
    int n = hit ? kReplicas : 1;
    for (int i = 0; i < n; ++i) {
      auto r = std::make_unique<Replica>();
      MTMLF_CHECK(r->registry.Register(1, model).ok(), "register");
      MTMLF_CHECK(r->registry.Publish(1).ok(), "publish");
      r->sock = base + "-r" + std::to_string(i) + ".sock";
      replicas_.push_back(std::move(r));
    }
    client_path_ = hit ? base + "-router.sock" : replicas_[0]->sock;
  }

  // Starts servers, front ends and the router. Returns false on failure.
  bool Start() {
    for (auto& r : replicas_) {
      r->server = std::make_unique<serve::InferenceServer>(
          &r->registry, serve::InferenceServer::Options{});
      if (!r->server->Start().ok()) return false;
      serve::SocketFrontEnd::Options fo;
      fo.unix_path = r->sock;
      r->front = std::make_unique<serve::SocketFrontEnd>(r->server.get(),
                                                         &r->registry, fo);
      if (!r->front->Start().ok()) return false;
    }
    if (hit_) {
      serve::router::RouterFrontEnd::Options ro;
      ro.listen.unix_path = client_path_;
      ro.policy = serve::router::RoutingPolicy::kAffinity;
      router_ = std::make_unique<serve::router::RouterFrontEnd>(ro);
      for (size_t i = 0; i < replicas_.size(); ++i) {
        serve::router::ReplicaEndpoint ep;
        ep.id = "replica-" + std::to_string(i);
        ep.client.unix_path = replicas_[i]->sock;
        if (!router_->AddReplica(ep).ok()) return false;
      }
      if (!router_->Start().ok()) return false;
    }
    return true;
  }

  ~ServingStack() {
    if (router_) router_->Shutdown();
    for (auto& r : replicas_) {
      if (r->front) r->front->Shutdown();
      if (r->server) r->server->Shutdown();
      std::remove(r->sock.c_str());
    }
    if (hit_) std::remove(client_path_.c_str());
  }

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  const std::string& client_path() const { return client_path_; }
  const std::vector<std::unique_ptr<Replica>>& replicas() const {
    return replicas_;
  }
  const serve::router::RouterFrontEnd* router() const { return router_.get(); }

 private:
  bool hit_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<serve::router::RouterFrontEnd> router_;
  std::string client_path_;
};

// One callout as the client saw it. Kept to 12 bytes: a run holds one per
// callout, and they count in peak_rss_mb.
struct CalloutRecord {
  uint32_t plan;
  uint32_t latency_ns;  // saturates at ~4.3 s
  uint16_t window;      // whole seconds since the phase started, at completion
  uint8_t ok;
  uint8_t cache_hit;
};

// The answers one client was served, kept per plan rather than per callout:
// the first answer for each plan, and counts of later answers that differ
// from it, were degraded or carry another model version. Every answer
// equals the eager reference iff each first answer does and no later one
// differs.
struct ServedAnswers {
  std::vector<RootAnswer> first;  // per pool plan
  std::vector<uint8_t> seen;
  uint64_t differing = 0, degraded = 0, wrong_version = 0;
};

struct CalloutPhase {
  std::vector<CalloutRecord> records;  // all clients, in no special order
  std::vector<ServedAnswers> answers;  // per client
  std::vector<double> window_cpu_s;    // process CPU time at each 1 s mark
  double wall_s = 0;
  double cpu_s = 0;
  tensor::AllocCountersSnapshot alloc_before, alloc_after;
};

// Source of plan indices: the miss stream cycles the shuffled pool through
// a shared counter; the hit stream draws Zipf ranks per client.
class PlanStream {
 public:
  PlanStream(size_t pool, bool zipf, uint64_t seed)
      : pool_(pool), zipf_(zipf), seed_(seed) {
    // rank_to_plan_ maps a Zipf rank (hit) or a position in the cycle
    // (miss) to a plan.
    Rng rng(SubSeed(seed, 4));
    rank_to_plan_.resize(pool);
    std::iota(rank_to_plan_.begin(), rank_to_plan_.end(), 0u);
    rng.Shuffle(&rank_to_plan_);
  }
  // The discarded warm-up before a timed phase. Hit: every plan of the
  // working set once, which fills the caches. Miss: the next kMissWarmup
  // plans of the cycle, which lets the workers record their tapes; the
  // timed phase continues the cycle, so it still never meets a cached plan.
  std::vector<uint32_t> Warmup() {
    std::vector<uint32_t> warm;
    if (zipf_) {
      warm.resize(pool_);
      std::iota(warm.begin(), warm.end(), 0u);
    } else {
      for (int i = 0; i < kMissWarmup; ++i) {
        warm.push_back(rank_to_plan_[counter_.fetch_add(1) % pool_]);
      }
    }
    return warm;
  }

  // Per-client generator; `client` selects an independent stream.
  std::function<uint32_t()> ForClient(int client, uint64_t phase) {
    if (!zipf_) {
      // Shuffled, so consecutive callouts come from different queries (an
      // optimizer's planning threads interleave queries).
      return [this] { return rank_to_plan_[counter_.fetch_add(1) % pool_]; };
    }
    auto rng = std::make_shared<Rng>(SubSeed(seed_, 100 + phase * 16 + client));
    return [this, rng] {
      int64_t r = rng->Zipf(static_cast<int64_t>(pool_), kHitZipfSkew);
      r = std::clamp<int64_t>(r, 0, static_cast<int64_t>(pool_) - 1);
      return rank_to_plan_[static_cast<size_t>(r)];
    };
  }

 private:
  size_t pool_;
  bool zipf_;
  uint64_t seed_;
  std::vector<uint32_t> rank_to_plan_;
  std::atomic<uint64_t> counter_{0};
};

// Closed-loop clients, one connection each, for `seconds` of wall time (or
// for a fixed list of plans when `fixed` is non-null: the warm-up).
using Clients = std::vector<std::unique_ptr<serve::IpcClient>>;

CalloutPhase RunCallouts(const QuerySet& pool, Clients& clients,
                         PlanStream* stream, uint64_t phase, double seconds,
                         const std::vector<uint32_t>* fixed, Tracer* tracer) {
  CalloutPhase out;
  size_t n = clients.size();
  std::vector<std::vector<CalloutRecord>> per(n);
  std::vector<Tracer::Buffer*> bufs(n, nullptr);
  out.answers.resize(n);
  for (size_t c = 0; c < n; ++c) {
    bufs[c] = tracer->NewBuffer();
    // Touched up front (resize, then clear keeps the capacity), so that
    // peak_rss_mb does not grow with the number of callouts a run completes.
    per[c].resize(fixed ? fixed->size() / n + 1
                        : kRecordsPerClientSecond *
                              static_cast<size_t>(std::ceil(seconds)));
    per[c].clear();
    out.answers[c].first.resize(pool.plans.size());
    out.answers[c].seen.assign(pool.plans.size(), 0);
  }
  std::atomic<size_t> fixed_next{0};
  out.alloc_before = tensor::ReadAllocCounters();
  double cpu0 = CpuSeconds();
  auto t0 = Clock::now();
  const int64_t phase_start = tracer->Now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      auto next = stream->ForClient(static_cast<int>(c), phase);
      serve::IpcClient& cl = *clients[c];
      Tracer::Buffer* buf = bufs[c];
      ServedAnswers& answers = out.answers[c];
      while (true) {
        uint32_t p;
        if (fixed != nullptr) {
          size_t i = fixed_next++;
          if (i >= fixed->size()) break;
          p = (*fixed)[i];
        } else {
          if (Clock::now() >= deadline) break;
          p = next();
        }
        const PoolPlan& pp = pool.plans[p];
        int64_t s = tracer->Now();
        auto r = cl.Predict(0, pool.queries[pp.query], *pp.plan);
        int64_t e = tracer->Now();
        buf->Add("ipc.client_predict", buf->NewId(), 0, s, e);
        CalloutRecord rec{
            p,
            static_cast<uint32_t>(std::min<int64_t>(e - s, UINT32_MAX)),
            static_cast<uint16_t>(std::min<int64_t>(
                (e - phase_start) / 1000000000, UINT16_MAX)),
            r.ok(), false};
        if (r.ok()) {
          const serve::InferencePrediction& a = r.value();
          rec.cache_hit = a.cache_hit;
          if (a.degraded) ++answers.degraded;
          if (a.model_version != 1) ++answers.wrong_version;
          if (!answers.seen[p]) {
            answers.seen[p] = 1;
            answers.first[p] = {a.card, a.cost_ms};
          } else if (!SameBits(answers.first[p].card, a.card) ||
                     !SameBits(answers.first[p].cost, a.cost_ms)) {
            ++answers.differing;
          }
        }
        per[c].push_back(rec);
      }
    });
  }
  // Sample CPU time at each whole second of the timed phase; the windows
  // between samples give per-second figures whose median resists a stall.
  if (fixed == nullptr) {
    out.window_cpu_s.push_back(cpu0);
    for (int w = 1; w <= static_cast<int>(seconds); ++w) {
      std::this_thread::sleep_until(t0 + std::chrono::seconds(w));
      out.window_cpu_s.push_back(CpuSeconds());
    }
  }
  for (auto& th : threads) th.join();
  out.wall_s = Secs(t0, Clock::now());
  out.cpu_s = CpuSeconds() - cpu0;
  out.alloc_after = tensor::ReadAllocCounters();
  for (auto& v : per) {
    out.records.insert(out.records.end(), v.begin(), v.end());
  }
  return out;
}

// End-to-end figures of a timed callout phase: throughput, latency
// percentiles and CPU per request of each one-second window (by completion
// time), then the median over windows.
struct WindowFigures {
  double throughput = 0, p50_us = 0, p99_us = 0, cpu_us_per_request = 0;
};

WindowFigures WindowMedians(const CalloutPhase& ph) {
  size_t windows = ph.window_cpu_s.size() > 0 ? ph.window_cpu_s.size() - 1 : 0;
  std::vector<std::vector<double>> lat(windows);
  for (const auto& r : ph.records) {
    if (!r.ok || r.window >= windows) continue;
    lat[r.window].push_back(1e-3 * static_cast<double>(r.latency_ns));
  }
  std::vector<double> tput, p50, p99, cpu;
  for (size_t w = 0; w < windows; ++w) {
    if (lat[w].empty()) continue;
    std::sort(lat[w].begin(), lat[w].end());
    double n = static_cast<double>(lat[w].size());
    tput.push_back(n);
    p50.push_back(QuantileSorted(lat[w], 0.50));
    p99.push_back(QuantileSorted(lat[w], 0.99));
    cpu.push_back(1e6 * (ph.window_cpu_s[w + 1] - ph.window_cpu_s[w]) / n);
  }
  return {Median(tput), Median(p50), Median(p99), Median(cpu)};
}

Clients ConnectClients(
    const std::string& path, int n, bool* ok) {
  Clients clients;
  *ok = true;
  for (int i = 0; i < n; ++i) {
    serve::IpcClient::Options co;
    co.unix_path = path;
    clients.push_back(std::make_unique<serve::IpcClient>(co));
    if (!clients.back()->Connect().ok()) *ok = false;
  }
  return clients;
}

// ---------------------------------------------------------------------------
// Per-layer micro passes over the workload's plans (traced runs only).
// ---------------------------------------------------------------------------

struct PlanRef {
  const query::Query* q;
  const query::PlanNode* plan;
};

// Median over kMicroRounds rounds (after one discarded warm-up round) of
// the mean microseconds per item; `round` runs the whole sample once.
double MicroUsPerItem(size_t items, const std::function<void()>& round,
                      Tracer::Buffer* buf, const Tracer& tracer,
                      const char* name) {
  round();
  std::vector<double> rounds;
  for (int r = 0; r < kMicroRounds; ++r) {
    int64_t s = tracer.Now();
    round();
    int64_t e = tracer.Now();
    buf->Add(name, buf->NewId(), 0, s, e);
    rounds.push_back(1e-3 * static_cast<double>(e - s) /
                     static_cast<double>(items));
  }
  return Median(rounds);
}

void AddMicroMetrics(const model::MtmlfQo& m, const std::vector<PlanRef>& plans,
                     Tracer* tracer, std::vector<Metric>* out) {
  Tracer::Buffer* buf = tracer->NewBuffer();
  tensor::NoGradGuard guard;
  tensor::Workspace ws;
  tensor::WorkspaceScope scope(&ws);
  const featurize::PlanEncoder& enc = m.plan_encoder(0);
  double encode = MicroUsPerItem(
      plans.size(),
      [&] {
        for (const PlanRef& p : plans) {
          {
            featurize::PlanEncodingCache cache;
            std::vector<const query::PlanNode*> nodes;
            tensor::Tensor x = enc.EncodePlan(*p.q, *p.plan, &nodes, &cache);
          }
          ws.Reset();
        }
      },
      buf, *tracer, "featurize.encode_plan");
  double eager = MicroUsPerItem(
      plans.size(),
      [&] {
        for (const PlanRef& p : plans) {
          { model::MtmlfQo::Forward f = m.Run(0, *p.q, *p.plan); }
          ws.Reset();
        }
      },
      buf, *tracer, "model.run_eager");
  tensor::TapeCache tapes;
  tapes.SetModelVersion(1);
  double taped = MicroUsPerItem(
      plans.size(),
      [&] {
        for (const PlanRef& p : plans) {
          { model::MtmlfQo::Forward f = m.Run(0, *p.q, *p.plan, &tapes); }
          ws.Reset();
        }
      },
      buf, *tracer, "model.run_tape");
  // RunBatch over groups of 8 consecutive plans.
  size_t grouped = plans.size() / 8 * 8;
  double batched = MicroUsPerItem(
      std::max<size_t>(grouped, 1),
      [&] {
        for (size_t g = 0; g < grouped; g += 8) {
          std::vector<model::MtmlfQo::PlanRef> refs;
          for (size_t i = g; i < g + 8; ++i) {
            refs.push_back({plans[i].q, plans[i].plan});
          }
          { auto fwd = m.RunBatch(0, refs); }
          ws.Reset();
        }
      },
      buf, *tracer, "model.run_batch");
  out->push_back({"featurize.encode_us_per_plan", encode, "us"});
  out->push_back({"model.run_eager_us_per_plan", eager, "us"});
  out->push_back({"model.run_tape_us_per_plan", taped, "us"});
  out->push_back({"model.runbatch_us_per_plan", batched, "us"});
}

// Quality of the join-order decisions: true cost against the oracle and
// against the given plan, worst ratio, kept initial orders.
struct DecisionQuality {
  double chosen_sum = 0, oracle_sum = 0, baseline_sum = 0;
  double log_ratio_sum = 0;  // sum of log(chosen / oracle)
  double worst_ratio = 0;
  int regressions_2x = 0;
  int initial_kept = 0;
  int decisions = 0;
};

void CheckAndScoreOrder(const Trained& t, const workload::LabeledQuery& lq,
                        const std::vector<int>& order, Checks* checks,
                        DecisionQuality* dq) {
  const query::Query& q = lq.query;
  bool exec_ok = optimizer::IsExecutableOrder(q, order);
  bool perm_ok = IsPermutationOf(order, q.tables);
  checks->Expect(exec_ok, "join order not executable");
  checks->Expect(perm_ok, "join order is not a permutation of the tables");
  if (!exec_ok || !perm_ok) return;
  TrueCoster tc(t.db.get(), &q);
  auto chosen = tc.OrderCost(order);
  auto oracle = tc.OracleCost();
  auto given = tc.OrderCost(lq.postgres_order);
  checks->Expect(chosen.ok() && oracle.ok() && given.ok(),
                 "true cost evaluation failed");
  if (!chosen.ok() || !oracle.ok() || !given.ok()) return;
  checks->Expect(chosen.value() >= oracle.value() * (1.0 - 1e-9),
                 "chosen order cheaper than the true-cost oracle");
  dq->chosen_sum += chosen.value();
  dq->oracle_sum += oracle.value();
  dq->baseline_sum += given.value();
  dq->log_ratio_sum += std::log(chosen.value() / oracle.value());
  dq->worst_ratio = std::max(dq->worst_ratio, chosen.value() / oracle.value());
  if (chosen.value() > 2.0 * given.value()) ++dq->regressions_2x;
  if (order == query::LeftDeepOrderOf(*lq.plan)) ++dq->initial_kept;
  ++dq->decisions;
}

model::BeamSearchOptions DecisionBeam() {
  model::BeamSearchOptions beam;
  beam.rerank_by_cost = true;  // MTMLF-QO as the paper's Table 2 runs it
  return beam;
}

// The join-order decision set: the first `n` queries of `qs` that have a
// baseline plan, given to PredictJoinOrder with that plan as the optimizer
// would hand it over.
std::vector<workload::LabeledQuery> DecisionSet(const QuerySet& qs, size_t n) {
  std::vector<workload::LabeledQuery> out;
  for (size_t q = 0; q < qs.queries.size() && out.size() < n; ++q) {
    int bp = qs.baseline_plan[q];
    if (bp < 0) continue;
    workload::LabeledQuery lq;
    lq.query = qs.queries[q];
    lq.plan = qs.plans[static_cast<size_t>(bp)].plan->Clone();
    lq.postgres_order = qs.plans[static_cast<size_t>(bp)].order;
    lq.true_card = qs.true_card[q];
    out.push_back(std::move(lq));
  }
  return out;
}

// Decides every query of the set twice (untimed, on several threads),
// checks that the repeat returns the same order, and checks and scores
// each decision.
DecisionQuality DecideAndScore(const Trained& t,
                               const std::vector<workload::LabeledQuery>& set,
                               Checks* checks) {
  std::vector<DecisionQuality> per(set.size());
  std::vector<Checks> per_checks(set.size());
  ParallelFor(set.size(), Threads(kCheckThreads), [&](size_t i) {
    auto r = t.model->PredictJoinOrder(0, set[i], DecisionBeam());
    auto again = t.model->PredictJoinOrder(0, set[i], DecisionBeam());
    per_checks[i].Expect(r.ok() && again.ok(), "PredictJoinOrder failed");
    if (!r.ok() || !again.ok()) return;
    per_checks[i].Expect(r.value() == again.value(),
                         "a repeated decision chose a different order");
    CheckAndScoreOrder(t, set[i], r.value(), &per_checks[i], &per[i]);
  });
  DecisionQuality dq;
  for (size_t i = 0; i < set.size(); ++i) {
    dq.chosen_sum += per[i].chosen_sum;
    dq.oracle_sum += per[i].oracle_sum;
    dq.baseline_sum += per[i].baseline_sum;
    dq.log_ratio_sum += per[i].log_ratio_sum;
    dq.worst_ratio = std::max(dq.worst_ratio, per[i].worst_ratio);
    dq.regressions_2x += per[i].regressions_2x;
    dq.initial_kept += per[i].initial_kept;
    dq.decisions += per[i].decisions;
    checks->failures += per_checks[i].failures;
  }
  return dq;
}

// plan_cost_ratio: the geometric mean over decisions of chosen true cost /
// oracle true cost. The ratio of the sums (model.total_cost_ratio) is what
// the paper's Table 2 totals show, but a few large queries decide it: on
// 600 queries it read 1.54-2.01 across three seeds of the same code.
double CostRatio(const DecisionQuality& dq) {
  return dq.decisions > 0 ? std::exp(dq.log_ratio_sum / dq.decisions) : 0.0;
}

void AddQualityMetrics(const Trained& t, const workload::Dataset& eval_set,
                       const DecisionQuality& dq, std::vector<Metric>* out) {
  std::vector<size_t> eval(eval_set.queries.size());
  std::iota(eval.begin(), eval.end(), size_t{0});
  train::EstimateEval ev =
      train::EvaluateEstimates(*t.model, 0, eval_set, eval);
  out->push_back({"model.card_qerror_p90", ev.card_qerror.p90, "ratio"});
  out->push_back({"model.cost_qerror_p50", ev.cost_qerror.median, "ratio"});
  out->push_back({"model.regressions_2x",
                  static_cast<double>(dq.regressions_2x), "count"});
  out->push_back({"model.worst_cost_ratio", dq.worst_ratio, "ratio"});
  out->push_back({"model.total_cost_ratio",
                  dq.oracle_sum > 0 ? dq.chosen_sum / dq.oracle_sum : 0.0,
                  "ratio"});
  out->push_back({"model.initial_order_kept",
                  static_cast<double>(dq.initial_kept), "count"});
  out->push_back({"optimizer.baseline_cost_ratio",
                  dq.oracle_sum > 0 ? dq.baseline_sum / dq.oracle_sum : 0.0,
                  "ratio"});
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total, build, label, pretrain, joint, joint_rate, start;
};

void AddSetupLayerMetrics(const SetupTimes& st, std::vector<Metric>* out) {
  out->push_back({"datagen.build_s", Median(st.build), "s"});
  out->push_back({"workload.label_s", Median(st.label), "s"});
  out->push_back({"train.pretrain_s", Median(st.pretrain), "s"});
  out->push_back({"train.joint_s", Median(st.joint), "s"});
  out->push_back(
      {"train.joint_examples_per_s", Median(st.joint_rate), "1/s"});
  out->push_back({"serve.start_s", Median(st.start), "s"});
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

void AddEndToEnd(const WindowFigures& f, double setup_s, double peak_rss_mb,
                 double qerr, double cost_ratio, std::vector<Metric>* out) {
  out->push_back({"latency_p50_us", f.p50_us, "us"});
  out->push_back({"cpu_us_per_request", f.cpu_us_per_request, "us"});
  out->push_back({"setup_s", setup_s, "s"});
  out->push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  out->push_back({"card_qerror_p50", qerr, "ratio"});
  out->push_back({"plan_cost_ratio", cost_ratio, "ratio"});
}

// ---------------------------------------------------------------------------
// PredictJoinOrder, part by part (traced runs only).
// ---------------------------------------------------------------------------

// Re-runs the parts of one PredictJoinOrder call through public entry
// points, each timed on its own: the eager forward on the given plan, the
// beam search, and the rerank (candidate forwards, cost model on
// max(model, baseline) cardinalities, and the baseline-estimate veto).
// The rerank has no public entry point of its own, so it is re-enacted
// here: the candidate loop and the veto mirror the second half of
// MtmlfQo::PredictJoinOrder in src/model/mtmlf_qo.cc (from the regression
// guard that appends the initial order to the final veto). A change to the
// library's rerank does not move model.rerank_us_per_decision; it moves
// model.predict_residual_us, and model.decision_stage_sum_ratio drifting
// from 1 is the sign that this copy no longer matches the library.
struct DecisionParts {
  double eager_us = 0, beam_us = 0, rerank_us = 0, predict_us = 0;
};

DecisionParts DecomposeDecision(const Trained& t,
                                const workload::LabeledQuery& lq,
                                Tracer::Buffer* buf, const Tracer& tracer) {
  const model::MtmlfQo& m = *t.model;
  const model::BeamSearchOptions beam = DecisionBeam();
  DecisionParts parts;
  uint64_t root = buf->NewId();
  int64_t r0 = tracer.Now();
  auto predicted = m.PredictJoinOrder(0, lq, beam);
  int64_t r1 = tracer.Now();
  buf->Add("model.predict_join_order", root, 0, r0, r1);
  parts.predict_us = 1e-3 * static_cast<double>(r1 - r0);
  (void)predicted;

  tensor::NoGradGuard guard;
  tensor::Workspace ws;
  tensor::WorkspaceScope scope(&ws);
  const query::Query& q = lq.query;
  model::MtmlfQo::Forward fwd;
  parts.eager_us = 1e6 * Timed(buf, tracer, "model.run_eager", root, [&] {
    fwd = m.Run(0, q, *lq.plan);
  });
  std::vector<model::ScoredOrder> cands;
  parts.beam_us = 1e6 * Timed(buf, tracer, "model.beam_search", root, [&] {
    cands = model::BeamSearchJoinOrder(m.trans_jo(), fwd.jo_memory,
                                       q.AdjacencyMatrix(), beam);
  });
  parts.rerank_us = 1e6 * Timed(buf, tracer, "model.rerank", root, [&] {
    std::vector<std::vector<int>> legal;
    for (const auto& c : cands) {
      if (!c.legal) continue;
      std::vector<int> order;
      for (int p : c.positions) order.push_back(q.tables[p]);
      legal.push_back(std::move(order));
      if (static_cast<int>(legal.size()) >= beam.rerank_top_k) break;
    }
    std::vector<int> initial = query::LeftDeepOrderOf(*lq.plan);
    legal.push_back(initial);
    const exec::CostModel cost_model;
    const auto* stats = t.baseline.get();
    double best_cost = 0;
    size_t best = 0;
    for (size_t i = 0; i < legal.size(); ++i) {
      query::PlanPtr plan = query::MakeLeftDeepPlan(legal[i]);
      model::MtmlfQo::Forward cf = m.Run(0, q, *plan);
      std::vector<double> cards = m.NodeCardPredictions(cf);
      std::unordered_map<const query::PlanNode*, double> card_of;
      for (size_t n = 0; n < cf.nodes.size(); ++n) {
        card_of[cf.nodes[n]] = std::max(
            cards[n], stats->EstimateSubset(q, cf.nodes[n]->BaseTables()));
      }
      exec::CardFn fn = [&](const query::PlanNode& node) {
        auto it = card_of.find(&node);
        return it == card_of.end() ? 1.0 : it->second;
      };
      double cost = cost_model.PlanCost(*plan, q, *t.db, fn);
      if (i == 0 || cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    exec::CardFn est = [&](const query::PlanNode& node) {
      return stats->EstimateSubset(q, node.BaseTables());
    };
    query::PlanPtr chosen = query::MakeLeftDeepPlan(legal[best]);
    query::PlanPtr init = query::MakeLeftDeepPlan(initial);
    volatile double veto = cost_model.PlanCost(*chosen, q, *t.db, est) -
                           3.0 * cost_model.PlanCost(*init, q, *t.db, est);
    (void)veto;
  });
  return parts;
}

// Times PredictJoinOrder and its parts on the first kDecomposeQueries
// decisions and adds their per-layer metrics, among them the parts' share
// of the whole (PredictJoinOrder timed in the same pass, so a drift of the
// host's speed between phases does not enter the ratio).
void AddDecisionLayerMetrics(const Trained& t,
                               const std::vector<workload::LabeledQuery>& set,
                               Tracer* tracer, std::vector<Metric>* out) {
  Tracer::Buffer* buf = tracer->NewBuffer();
  std::vector<double> eager, beam, rerank, predict;
  const size_t n = std::min(set.size(), static_cast<size_t>(kDecomposeQueries));
  for (size_t i = 0; i < n; ++i) {
    DecisionParts p = DecomposeDecision(t, set[i], buf, *tracer);
    eager.push_back(p.eager_us);
    beam.push_back(p.beam_us);
    rerank.push_back(p.rerank_us);
    predict.push_back(p.predict_us);
  }
  double e = Median(eager), b = Median(beam), rr = Median(rerank);
  double whole = Median(predict);
  out->push_back({"model.predict_join_order_us_p50", whole, "us"});
  out->push_back({"model.eager_forward_us_per_decision", e, "us"});
  out->push_back({"model.beam_search_us_per_decision", b, "us"});
  out->push_back({"model.rerank_us_per_decision", rr, "us"});
  out->push_back({"model.predict_residual_us", whole - (e + b + rr), "us"});
  out->push_back({"model.decision_stage_sum_ratio", (e + b + rr) / whole,
                  "ratio"});
}

// ---------------------------------------------------------------------------
// Callout workloads.
// ---------------------------------------------------------------------------

int RunCalloutWorkload(const Args& args, const Clock::time_point process_start,
                       Tracer* tracer) {
  const bool hit = args.workload == "callout-hit";
  Tracer::Buffer* setup_buf = tracer->NewBuffer();
  const int num_clients = Threads(kMaxClients);
  const int cache_capacity =
      static_cast<int>(serve::InferenceServer::Options{}.cache_capacity);
  const int pool_size = hit ? kHitWorkingSet : 2 * cache_capacity;

  SetupTimes st;
  Trained trained;
  QuerySet pool;
  std::unique_ptr<ServingStack> stack;
  Clients clients;
  std::unique_ptr<PlanStream> stream;
  Checks checks;
  uint64_t warm_failed = 0;
  for (int s = 0; s < kSetups; ++s) {
    // Release the previous set-up before building the next, so peak_rss_mb
    // holds one set-up, as a deployment would. The stack holds the model,
    // and the model points into the database, so they go in that order.
    clients.clear();
    stack.reset();
    stream.reset();
    pool = QuerySet{};
    trained.model.reset();
    trained = Trained{};
    auto t0 = s == 0 ? process_start : Clock::now();
    uint64_t root = setup_buf->NewId();
    int64_t root_start = tracer->Now();
    trained = BuildAndTrain(args.train_seed, tracer, setup_buf, root);
    Timed(setup_buf, *tracer, "workload.callout_pool", root,
          [&] {
            pool = BuildQuerySet(trained, args.seed, pool_size,
                                    hit ? 1 : kMissPlansPerQuery);
          });
    stream = std::make_unique<PlanStream>(pool.plans.size(), hit, args.seed);
    bool ok = true;
    double start_s = Timed(setup_buf, *tracer, "serve.start", root, [&] {
      stack = std::make_unique<ServingStack>(trained.model, hit, s);
      ok = stack->Start();
      if (ok) clients = ConnectClients(stack->client_path(), num_clients, &ok);
    });
    if (!ok) {
      std::fprintf(stderr, "qobench: serving stack failed to start\n");
      return 1;
    }
    std::vector<uint32_t> warm = stream->Warmup();
    Timed(setup_buf, *tracer, "serve.warmup", root, [&] {
      CalloutPhase w = RunCallouts(pool, clients, stream.get(), 0, 0, &warm,
                                   tracer);
      for (const auto& r : w.records) warm_failed += r.ok ? 0 : 1;
    });
    setup_buf->Add("setup", root, 0, root_start, tracer->Now());
    st.total.push_back(Secs(t0, Clock::now()));
    st.build.push_back(trained.build_s);
    st.label.push_back(trained.label_s);
    st.pretrain.push_back(trained.pretrain_s);
    st.joint.push_back(trained.joint_s);
    st.joint_rate.push_back(trained.joint_examples / trained.joint_s);
    st.start.push_back(start_s);
  }
  checks.Expect(warm_failed == 0, "warm-up callouts failed");

  // Timed phase, tracing off (spans are not kept).
  Tracer plain_tracer(false);
  CalloutPhase ph = RunCallouts(pool, clients, stream.get(), 1, args.seconds,
                                nullptr, &plain_tracer);
  // Taken before the output checks, which hold their own references.
  const double peak_rss_mb = PeakRssMb();

  // Metrics of the traced phase come from a fresh stack, so its counters
  // and histograms hold the traced phase (plus its warm-up) only.
  std::vector<Metric> layer;
  double traced_throughput = 0.0;
  CalloutPhase tr;
  std::unique_ptr<ServingStack> tstack;
  if (args.trace) {
    clients.clear();
    stack.reset();
    bool ok = true;
    tstack = std::make_unique<ServingStack>(trained.model, hit, 100);
    ok = tstack->Start();
    if (ok) clients = ConnectClients(tstack->client_path(), num_clients, &ok);
    if (!ok) {
      std::fprintf(stderr, "qobench: traced serving stack failed to start\n");
      return 1;
    }
    std::vector<uint32_t> warm = stream->Warmup();
    Tracer quiet(false);
    RunCallouts(pool, clients, stream.get(), 2, 0, &warm, &quiet);
    std::vector<uint64_t> hits0, miss0, replays0, records0;
    for (auto& r : tstack->replicas()) {
      const auto& m = r->server->metrics();
      hits0.push_back(m.cache_hits());
      miss0.push_back(m.cache_misses());
      replays0.push_back(m.tape_replays());
      records0.push_back(m.tape_records());
    }
    tr = RunCallouts(pool, clients, stream.get(), 3, args.seconds, nullptr,
                     tracer);
    uint64_t hits = 0, misses = 0, replays = 0, records = 0;
    std::vector<double> server_p50;
    double mean_batch = 0, arena_hw = 0;
    for (size_t i = 0; i < tstack->replicas().size(); ++i) {
      const auto& m = tstack->replicas()[i]->server->metrics();
      hits += m.cache_hits() - hits0[i];
      misses += m.cache_misses() - miss0[i];
      replays += m.tape_replays() - replays0[i];
      records += m.tape_records() - records0[i];
      server_p50.push_back(m.latency().PercentileUs(0.50));
      mean_batch += m.MeanBatchSize() / tstack->replicas().size();
      arena_hw = std::max(arena_hw, static_cast<double>(m.arena_high_water()));
    }
    size_t done = 0;
    std::vector<double> hit_us, miss_us;
    for (const auto& r : tr.records) {
      if (!r.ok) continue;
      ++done;
      double us = 1e-3 * static_cast<double>(r.latency_ns);
      (r.cache_hit ? hit_us : miss_us).push_back(us);
    }
    traced_throughput = WindowMedians(tr).throughput;
    double client_p50 = WindowMedians(tr).p50_us;
    double srv_p50 = Median(server_p50);
    double router_p50 =
        hit ? tstack->router()->metrics().forward_latency().PercentileUs(0.50)
            : 0.0;
    // Stages along a callout's path: server-side time, the router's hop to
    // the replica (hit only), and the client's socket hop to the first
    // tier. Each is the difference of medians measured at its boundary.
    double stage_router = hit ? router_p50 - srv_p50 : 0.0;
    double stage_ipc = client_p50 - (hit ? router_p50 : srv_p50);
    double requests = std::max<double>(1.0, static_cast<double>(done));
    layer.push_back({"throughput_rps", traced_throughput, "1/s"});
    layer.push_back({"latency_p99_us", WindowMedians(tr).p99_us, "us"});
    layer.push_back({"serve.server_latency_p50_us", srv_p50, "us"});
    layer.push_back({"serve.hit_latency_p50_us", Median(hit_us), "us"});
    layer.push_back({"serve.miss_latency_p50_us", Median(miss_us), "us"});
    layer.push_back(
        {"serve.cache_hit_ratio",
         hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
         "ratio"});
    layer.push_back({"serve.mean_batch", mean_batch, "count"});
    layer.push_back({"serve.cpu_cores_busy", tr.cpu_s / tr.wall_s, "cores"});
    layer.push_back({"serve.tape_replays_per_request",
                     static_cast<double>(replays) / requests, "count"});
    layer.push_back({"serve.tape_records", static_cast<double>(records),
                     "count"});
    layer.push_back({"serve.arena_high_water_kb", arena_hw / 1024.0, "KiB"});
    layer.push_back({"ipc.hop_us_p50", stage_ipc, "us"});
    std::string frame;
    double frame_bytes = 0;
    for (const auto& pp : pool.plans) {
      frame.clear();
      serve::EncodeInferRequest(0, pool.queries[pp.query], *pp.plan, &frame);
      frame_bytes +=
          static_cast<double>(frame.size() + serve::kFrameHeaderBytes);
    }
    layer.push_back({"ipc.request_bytes",
                     frame_bytes / static_cast<double>(pool.plans.size()),
                     "bytes"});
    layer.push_back({"router.forward_latency_p50_us", router_p50, "us"});
    layer.push_back(
        {"router.failovers",
         hit ? static_cast<double>(tstack->router()->metrics().failovers())
             : 0.0,
         "count"});
    layer.push_back({"router.hop_us_p50", stage_router, "us"});
    layer.push_back(
        {"tensor.ops_per_request",
         static_cast<double>(tr.alloc_after.ops - tr.alloc_before.ops) /
             requests,
         "count"});
    layer.push_back({"tensor.heap_nodes_per_request",
                     static_cast<double>(tr.alloc_after.heap_nodes -
                                         tr.alloc_before.heap_nodes) /
                         requests,
                     "count"});
    // The socket hop measured on its own: health round trips on the same
    // connections, which cross the same front end without model work.
    std::vector<double> rtt_us;
    for (auto& cl : clients) {
      for (int i = 0; i < kHealthProbes; ++i) {
        auto h0 = Clock::now();
        bool ok_rtt = cl->Health().ok();
        if (ok_rtt) rtt_us.push_back(1e6 * Secs(h0, Clock::now()));
      }
    }
    double health_p50 = Median(rtt_us);
    layer.push_back({"ipc.health_rtt_us_p50", health_p50, "us"});
    // Stages measured apart from each other: the socket hop (health round
    // trip) plus what lies behind the first tier (router forward latency,
    // or server-side latency), against the client latency of the same
    // traced phase.
    layer.push_back({"trace.stage_sum_ratio",
                     (health_p50 + (hit ? router_p50 : srv_p50)) / client_p50,
                     "ratio"});
  }

  // ---- Output checks, apart from the timed path.
  const auto& m = *trained.model;
  std::vector<RootAnswer> eager(pool.plans.size());
  ParallelFor(pool.plans.size(), Threads(kCheckThreads), [&](size_t i) {
    eager[i] = EagerRoot(m, pool.queries[pool.plans[i].query],
                         *pool.plans[i].plan);
  });
  uint64_t failed = 0, mismatched = 0, wrong_version = 0, degraded = 0;
  for (const CalloutPhase* phase : {&ph, &tr}) {
    for (const auto& r : phase->records) failed += r.ok ? 0 : 1;
    for (const ServedAnswers& a : phase->answers) {
      mismatched += a.differing;
      wrong_version += a.wrong_version;
      degraded += a.degraded;
      for (size_t p = 0; p < a.seen.size(); ++p) {
        if (a.seen[p] && (!SameBits(a.first[p].card, eager[p].card) ||
                          !SameBits(a.first[p].cost, eager[p].cost))) {
          ++mismatched;
        }
      }
    }
  }
  // q-error over the distinct plans served in the timed phase, each once:
  // weighting by request count would let a few Zipf-hot plans decide it.
  std::vector<double> qerr;
  for (size_t p = 0; p < pool.plans.size(); ++p) {
    for (const ServedAnswers& a : ph.answers) {
      if (!a.seen[p]) continue;
      qerr.push_back(
          QError(a.first[p].card, pool.true_card[pool.plans[p].query]));
      break;
    }
  }
  checks.Expect(mismatched == 0,
                std::to_string(mismatched) +
                    " served answers differ from the eager forward");
  checks.Expect(wrong_version == 0,
                std::to_string(wrong_version) +
                    " answers carry a model_version other than 1");
  checks.Expect(degraded == 0,
                std::to_string(degraded) + " answers were degraded");
  checks.Expect(!qerr.empty(), "no callout completed");

  // plan_cost_ratio: the join orders the served model chooses for the
  // pool's first kDecisionQueries queries, against the true-cost oracle.
  std::vector<workload::LabeledQuery> decisions =
      DecisionSet(pool, kDecisionQueries);
  DecisionQuality dq = DecideAndScore(trained, decisions, &checks);

  size_t attempted = ph.records.size() + tr.records.size();
  const WindowFigures plain = WindowMedians(ph);
  std::vector<Metric> metrics;
  if (!args.trace) {
    AddEndToEnd(plain, Median(st.total), peak_rss_mb, Median(qerr),
                CostRatio(dq), &metrics);
  } else {
    metrics = layer;
    AddSetupLayerMetrics(st, &metrics);
    std::vector<PlanRef> sample;
    for (size_t i = 0; i < pool.plans.size() &&
                       sample.size() < static_cast<size_t>(kMicroPlans);
         ++i) {
      sample.push_back({&pool.queries[pool.plans[i].query],
                        pool.plans[i].plan.get()});
    }
    AddMicroMetrics(m, sample, tracer, &metrics);
    AddQualityMetrics(trained, BuildEvalSet(trained, args.seed), dq,
                      &metrics);
    AddDecisionLayerMetrics(trained, decisions, tracer, &metrics);
    metrics.push_back({"trace.overhead_ratio",
                       traced_throughput / plain.throughput, "ratio"});
  }
  std::fprintf(stderr,
               "qobench: %s clients=%d pool=%zu plans over %zu queries "
               "(generated %d, dropped %d empty, %d over %.0f rows) "
               "callouts=%zu failed=%llu wall=%.2fs\n",
               args.workload.c_str(), num_clients, pool.plans.size(),
               pool.queries.size(), pool.generated, pool.dropped_empty,
               pool.dropped_large, kMaxTrueCard, attempted,
               static_cast<unsigned long long>(failed), ph.wall_s);
  clients.clear();
  tstack.reset();
  stack.reset();
  if (args.trace && !args.trace_out.empty() && !tracer->Write(args.trace_out)) {
    checks.Expect(false, "could not write " + args.trace_out);
  }
  PrintResult(checks.failures == 0, attempted, failed, metrics);
  return checks.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  SetLogLevel(1);
  Args args = ParseArgs(argc, argv);
  Tracer tracer(args.trace);
  return RunCalloutWorkload(args, process_start, &tracer);
}
