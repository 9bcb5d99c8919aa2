// perfbench_harness — the C++ half of the PromptEM benchmark.
//
// Subcommands (perfbench/run.py drives them; see perfbench/README.md):
//   lm PREFIX                         load or pre-train the shared LM
//   gen WORKLOAD SEED SECONDS DIR     write every seeded input to DIR
//   offline DIR LM SECONDS SETUPS TRACE
//   delta   DIR LM SETUPS TRACE       applies every delta gen wrote
//   serve-trace DIR LM                in-process serve replay (per-layer)
//   loadgen DIR PORT PID LM           open-loop client of promptem_serve
//
// Every measuring subcommand prints its raw measurements as one line
// "PERFBENCH_RESULT {json}" on stdout. Spans are recorded only when TRACE
// is 1, around calls into the library's public functions — never inside
// src/ — and written to DIR/trace_<cmd>.json when the run ends.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/common.h"
#include "baselines/matchers.h"
#include "core/hashing.h"
#include "core/mem_tracker.h"
#include "core/rng.h"
#include "core/signals.h"
#include "core/thread_pool.h"
#include "data/blocking.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "pipeline/incremental.h"
#include "pipeline/match_pipeline.h"
#include "promptem/promptem.h"
#include "promptem/scoring.h"
#include "promptem/templates.h"
#include "serve/batch_queue.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace promptem;

// ---------------------------------------------------------------------------
// Fixed workload shape. Changing any of these changes the benchmark.

constexpr uint64_t kLmSeed = 42;        // the seed every tool pre-trains with
// PromptEM trains on one fixed synthetic training set, the same for every
// workload seed: at this scale (a d=32 LM, ~100 labels) a trained model's
// F1 swings by tens of points between training seeds, which would drown
// any change a commit makes. The workload seed varies what is matched.
constexpr uint64_t kTrainSeed = 42;
constexpr size_t kTrainRows = 500;
constexpr int kLabels = 128;
constexpr int kEpochs = 3;              // at 2 the model predicts all matches
constexpr size_t kPairsPerSplit = 128;
constexpr size_t kEvalPairs = 32;       // valid and test pairs
// offline-match left rows: a job of ~5 000 candidates takes seconds, so its
// time averages over the shared host's short speed swings.
constexpr size_t kOfflineRows = 512;
constexpr size_t kServeRows = 1000;     // serve-open left rows
constexpr size_t kDeltaRows = 150;      // delta-rematch left rows
constexpr uint64_t kDeltaTablesSeed = 7;
// Deltas per run second. A run applies every generated delta whatever the
// host's speed, so each commit does the same work on tables of the same
// sizes (appends grow the right table as the stream goes on).
constexpr size_t kDeltasPerSecond = 160;
constexpr int kTopK = 10;
constexpr size_t kChunk = 4096;
constexpr int kPairsPerRequest = 2;     // a gold match + a non-match
constexpr double kServeRate = 150.0;    // requests/s; see perfbench/README.md
constexpr int kDeadlineMs = 500;
constexpr int kWarmupPairsPerRequest = 32;
constexpr int kCapacityWindow = 48;     // in flight per connection
constexpr double kCapacitySeconds = 6.0;
constexpr double kMaxGenLagMs = 25.0;   // p99 beyond this: run invalid
constexpr double kMinOfferedShare = 0.95;
constexpr double kCapacityRampSeconds = 0.5;  // not counted in capacity

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of them at or below.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Minimal JSON emitter for the result line.

class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& List(const std::string& key, const std::vector<double>& values) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", values[i]);
      s += buf;
    }
    return Raw(key, s + "]");
  }
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void EmitResult(const Json& json) {
  std::printf("PERFBENCH_RESULT %s\n", json.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Spans. Kept in memory; a span's parent is the innermost open span on the
// same thread. Self time = duration - time covered by child spans.

class Tracer {
 public:
  std::atomic<bool> on{false};
  /// Per-thread switch: a muted thread records no spans while `on`.
  static thread_local bool muted;

  int Begin(const char* name) {
    if (!on || muted) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, parent_, thread_id(), Now(), 0.0});
    parent_ = id;
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = Now();
    parent_ = spans_[static_cast<size_t>(id)].parent;
  }

  struct Totals {
    size_t count = 0;
    double total = 0.0;  // seconds
    double self = 0.0;
    bool top_level = false;
  };

  std::map<std::string, Totals> Aggregate() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double dur = spans_[i].end - spans_[i].start;
      t.count += 1;
      t.total += dur;
      t.self += dur - child[i];
      t.top_level = t.top_level || spans_[i].parent < 0;
    }
    return out;
  }

  // Chrome trace-event JSON, viewable offline in Perfetto.
  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.empty()) return;
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    const double t0 = spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    i ? "," : "", spans_[i].name, spans_[i].tid,
                    1e6 * (spans_[i].start - t0),
                    1e6 * (spans_[i].end - spans_[i].start));
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int tid;
    double start;
    double end;
  };

  static int thread_id() {
    static std::atomic<int> next{0};
    thread_local int id = next++;
    return id;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  static thread_local int parent_;
};

thread_local int Tracer::parent_ = -1;
thread_local bool Tracer::muted = false;

Tracer g_tracer;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_tracer.Begin(name)) {}
  ~SpanScope() { g_tracer.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

/// A Blocker whose NextChunk calls are spanned. The wrapped blocker is the
/// program's; the wrapper only forwards.
class SpannedBlocker : public data::Blocker {
 public:
  explicit SpannedBlocker(std::unique_ptr<data::Blocker> inner)
      : inner_(std::move(inner)) {}
  const char* Name() const override { return inner_->Name(); }
  size_t left_size() const override { return inner_->left_size(); }
  size_t right_size() const override { return inner_->right_size(); }
  void Reset() override { inner_->Reset(); }
  size_t NextChunk(size_t max_pairs,
                   std::vector<data::PairExample>* out) override {
    SpanScope span("data.Blocker::NextChunk");
    return inner_->NextChunk(max_pairs, out);
  }

 private:
  std::unique_ptr<data::Blocker> inner_;
};

/// Counters the spanned scorer accumulates alongside its spans.
struct ScoreCounters {
  size_t pairs = 0;
  size_t calls = 0;
  double cpu = 0.0;  // process CPU seconds inside ScoreBatch
};

/// The program's chunk scorer (MakeClassifierChunkScorer), optionally
/// split into spanned EncodeAll and ScoreBatch calls. The spanned form
/// computes exactly what MakeClassifierChunkScorer computes.
em::ChunkScoreFn MakeScorer(em::PairClassifier* model,
                            const em::PairEncoder* encoder,
                            const data::GemDataset* dataset, bool traced,
                            ScoreCounters* counters) {
  if (!traced) return em::MakeClassifierChunkScorer(model, encoder, dataset);
  return [=](const std::vector<data::PairExample>& chunk) {
    std::vector<em::EncodedPair> encoded;
    {
      SpanScope span("em.PairEncoder::EncodeAll");
      encoded = encoder->EncodeAll(*dataset, chunk);
    }
    SpanScope span("em.ScoreBatch");
    const double cpu0 = CpuSeconds();
    std::vector<em::ProbPair> probs = em::ScoreBatch(model, encoded);
    counters->cpu += CpuSeconds() - cpu0;
    counters->pairs += chunk.size();
    counters->calls += 1;
    return probs;
  };
}

// ---------------------------------------------------------------------------
// Inputs.

std::vector<std::vector<long long>> LoadCsvInts(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::vector<long long>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<long long> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) row.push_back(std::stoll(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// gold.csv: the matching work-left index of each work-right row, or -1.
std::vector<int> LoadGold(const std::string& dir) {
  std::vector<int> gold;
  for (const auto& row : LoadCsvInts(dir + "/gold.csv")) {
    gold.push_back(static_cast<int>(row[0]));
  }
  return gold;
}

data::GemDataset LoadDataset(const std::string& dir) {
  auto loaded = data::LoadGemDataset(dir, "custom");
  if (!loaded.ok()) Die("load " + dir + ": " + loaded.status().ToString());
  return std::move(loaded).value();
}

std::unique_ptr<lm::PretrainedLM> LoadLm(const std::string& prefix) {
  auto loaded = lm::PretrainedLM::Load(prefix);
  if (!loaded.ok()) Die("load LM " + prefix + ": " + loaded.status().ToString());
  return std::move(loaded).value();
}

/// Perturbs one attribute of a relational record (typo, swap, or price
/// jitter) — the dirty-EM noise an upsert carries.
data::Record PerturbRecord(const data::Record& source, core::Rng* rng) {
  auto attrs = source.attrs;
  if (attrs.empty()) return source;
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto& value = attrs[rng->NextU64(attrs.size())].second;
    if (value.is_number()) {
      const double jitter = 1.0 + 0.02 * (rng->NextDouble() - 0.5);
      value = data::Value::Num(std::round(value.as_number() * jitter * 100.0) /
                               100.0);
      break;
    }
    if (!value.is_string() || value.as_string().size() < 2) continue;
    std::string s = value.as_string();
    const size_t pos = rng->NextU64(s.size() - 1);
    switch (rng->NextU64(3)) {
      case 0: s.erase(pos, 1); break;
      case 1: std::swap(s[pos], s[pos + 1]); break;
      default: s[pos] = static_cast<char>('a' + rng->NextU64(26)); break;
    }
    value = data::Value::Str(std::move(s));
    break;
  }
  return data::Record::Relational(std::move(attrs));
}

void SaveTableOrDie(const std::vector<data::Record>& table,
                    const std::string& stem) {
  auto saved = data::SaveTable(table, stem);
  if (!saved.ok()) Die("save " + stem + ": " + saved.status().ToString());
}

int Gen(const std::string& workload, uint64_t seed, double seconds,
        const std::string& dir) {
  size_t rows = 0;
  if (workload == "offline-match") rows = kOfflineRows;
  else if (workload == "serve-open") rows = kServeRows;
  else if (workload == "delta-rematch") rows = kDeltaRows;
  else Die("unknown workload " + workload);

  // The training set is the same for every workload seed (see
  // kTrainSeed); the seed varies the tables the trained model matches.
  data::SyntheticTableOptions train_options;
  train_options.rows = kTrainRows;
  train_options.seed = kTrainSeed;
  data::GemDataset train =
      data::GenerateSyntheticTables(train_options)
          .ToDataset(kPairsPerSplit, kTrainSeed ^ 0xDA7AULL);
  train.valid.resize(kEvalPairs);
  train.test.resize(kEvalPairs);
  core::Status saved = data::SaveGemDataset(train, dir + "/train");
  if (!saved.ok()) Die("save training set: " + saved.ToString());

  // delta-rematch matches one fixed pair of tables and its seed varies
  // the delta stream: at 150 rows, which pairs the MinHash blocker finds
  // varies the re-scoring load by ~10 % between table seeds.
  data::SyntheticTableOptions options;
  options.rows = rows;
  options.seed = workload == "delta-rematch" ? kDeltaTablesSeed : seed;
  data::SyntheticTables work = data::GenerateSyntheticTables(options);
  const size_t left_n = work.left.size();
  const size_t right_n = work.right.size();
  SaveTableOrDie(work.left, dir + "/work_left");
  SaveTableOrDie(work.right, dir + "/work_right");
  {
    std::ofstream out(dir + "/gold.csv");
    for (int l : work.left_of_right) out << l << "\n";
  }

  if (workload == "serve-open") {
    // The daemon loads one dataset: the training tables followed by the
    // work tables, so request indexes are offset by the training rows.
    data::GemDataset served = train;
    const int lo = static_cast<int>(train.left_table.size());
    const int ro = static_cast<int>(train.right_table.size());
    served.left_table.insert(served.left_table.end(), work.left.begin(),
                             work.left.end());
    served.right_table.insert(served.right_table.end(), work.right.begin(),
                              work.right.end());
    saved = data::SaveGemDataset(served, dir + "/serve");
    if (!saved.ok()) Die("save served dataset: " + saved.ToString());
    // The daemon trains exactly as the in-process set-up does.
    std::ofstream(dir + "/serve_args.txt")
        << "--labels " << kLabels << " --epochs " << kEpochs << " --seed "
        << kTrainSeed << "\n";

    // Schedule lines: offset_us, then (left, right, gold) per pair.
    core::Rng rng(core::Mix64(seed ^ 0x5E4E0ULL));
    std::ofstream out(dir + "/schedule.csv");
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / kServeRate;
      if (t >= seconds) break;
      out << static_cast<long long>(t * 1e6);
      for (int k = 0; k < kPairsPerRequest; ++k) {
        const size_t l = rng.NextU64(left_n);
        const int gold_r = work.right_of_left[l];
        int r = gold_r;
        if (k >= kPairsPerRequest / 2) {
          r = static_cast<int>(rng.NextU64(right_n));
          if (r == gold_r) r = static_cast<int>((r + 1) % right_n);
        }
        out << "," << lo + static_cast<int>(l) << "," << ro + r << ","
            << (r == gold_r ? 1 : 0);
      }
      out << "\n";
    }
    // The warm-up touches every work record once.
    std::ofstream warm(dir + "/warmup.csv");
    for (size_t i = 0; i < std::max(left_n, right_n); ++i) {
      warm << lo + static_cast<int>(i % left_n) << ","
           << ro + static_cast<int>(i % right_n) << "\n";
    }
  }

  if (workload == "delta-rematch") {
    // Upserts re-perturb a record's original content (no drift across
    // thousands of deltas). They walk seeded permutations of the original
    // rows, so every record is upserted about equally often and a seed's
    // re-scoring load follows its tables rather than which records its
    // stream happened to pick. Every 20th delta also deletes a live right
    // record while more than half are live, and every 20th (offset)
    // appends a perturbed copy of a left, which becomes that left's second
    // gold match.
    core::Rng rng(core::Mix64(seed ^ 0xDE17AULL));
    std::vector<size_t> left_order(left_n), right_order(right_n);
    std::iota(left_order.begin(), left_order.end(), size_t{0});
    std::iota(right_order.begin(), right_order.end(), size_t{0});
    rng.Shuffle(&left_order);
    rng.Shuffle(&right_order);
    size_t next_left = 0, next_right = 0;
    std::vector<bool> right_live(right_n, true);
    size_t live_rights = right_n, right_size = right_n;
    std::vector<data::Record> records;
    std::ofstream out(dir + "/deltas.csv");
    const size_t deltas =
        static_cast<size_t>(std::llround(seconds * kDeltasPerSecond));
    for (size_t d = 0; d < deltas; ++d) {
      const size_t upserts = 1 + rng.NextU64(2);
      for (size_t u = 0; u < upserts; ++u) {
        if (rng.Bernoulli(0.7)) {
          size_t r = right_order[next_right++ % right_n];
          while (!right_live[r]) r = right_order[next_right++ % right_n];
          out << d << ",U,R," << r << "," << records.size() << ",-1\n";
          records.push_back(PerturbRecord(work.right[r], &rng));
        } else {
          const size_t l = left_order[next_left++ % left_n];
          out << d << ",U,L," << l << "," << records.size() << ",-1\n";
          records.push_back(PerturbRecord(work.left[l], &rng));
        }
      }
      if (d % 20 == 3 && 2 * live_rights > right_n) {
        size_t r = rng.NextU64(right_n);
        while (!right_live[r]) r = (r + 1) % right_n;
        right_live[r] = false;
        --live_rights;
        out << d << ",D,R," << r << ",-1,-1\n";
      }
      if (d % 20 == 13) {
        const size_t l = rng.NextU64(left_n);
        out << d << ",U,R," << right_size << "," << records.size() << ","
            << l << "\n";
        records.push_back(PerturbRecord(work.left[l], &rng));
        ++right_size;
      }
    }
    SaveTableOrDie(records, dir + "/delta_records");
  }
  std::printf("wrote %s inputs to %s (%zu x %zu work rows)\n",
              workload.c_str(), dir.c_str(), left_n, right_n);
  return 0;
}

// ---------------------------------------------------------------------------
// Set-up: load data and LM, train PromptEM (teacher + self-trained student)
// exactly as the daemon does for --labels kLabels --epochs kEpochs.

struct Trained {
  data::GemDataset dataset;  // the training set
  data::GemDataset work;     // the seeded tables the workload matches
  std::unique_ptr<lm::PretrainedLM> lm;
  std::unique_ptr<em::PromptEM> promptem;
  std::optional<em::PairEncoder> encoder;
  double load_data_s = 0.0;
  double load_lm_s = 0.0;
  double fit_s = 0.0;
};

train::RunOptions MakeRunOptions() {
  train::RunOptions options;
  options.seed = kTrainSeed;
  options.epochs = kEpochs;
  options.student_epochs = kEpochs;
  return options;
}

std::unique_ptr<Trained> SetUp(const std::string& dir,
                               const std::string& lm_prefix) {
  auto t = std::make_unique<Trained>();
  const double t0 = Now();
  {
    t->dataset = LoadDataset(dir + "/train");
    auto left = data::LoadTableAuto(dir + "/work_left");
    auto right = data::LoadTableAuto(dir + "/work_right");
    if (!left.ok() || !right.ok()) Die("cannot load the work tables in " + dir);
    t->work = em::MakeTableDataset("work", std::move(left).value(),
                                   std::move(right).value());
  }
  const double t1 = Now();
  t->lm = LoadLm(lm_prefix);
  const double t2 = Now();
  {
    core::Rng rng(kTrainSeed);
    const data::LowResourceSplit split =
        data::MakeCountSplit(t->dataset, kLabels, &rng);
    t->promptem = std::make_unique<em::PromptEM>(
        t->lm.get(), baselines::MakePromptEmConfig(baselines::Method::kPromptEM,
                                                   MakeRunOptions()));
    t->promptem->Run(t->dataset, split);
    t->encoder.emplace(em::MakePairEncoder(*t->lm, t->dataset));
  }
  const double t3 = Now();
  t->load_data_s = t1 - t0;
  t->load_lm_s = t2 - t1;
  t->fit_s = t3 - t2;
  return t;
}

// ---------------------------------------------------------------------------
// Per-op timing of the encoder's public module forwards on the workload's
// own sequence lengths, graph-free, under the same pool the engine uses.

struct OpCosts {
  std::map<std::string, double> us_per_pair;  // op time x calls per pair
  double flops_per_pair = 0.0;
  double bytes_per_pair = 0.0;
};

OpCosts TimeEncoderOps(const lm::PretrainedLM& lm,
                       const std::vector<int>& seq_lens) {
  const nn::TransformerConfig& cfg = lm.config();
  const int d = cfg.dim;
  const int f = cfg.ffn_dim;
  const int layers = cfg.num_layers;
  const int vocab = cfg.vocab_size;
  const int prompts = em::NumPromptSlots(em::TemplateType::kT2);
  core::Rng rng(7);
  nn::MultiHeadSelfAttention attn(d, cfg.num_heads, cfg.dropout, &rng);
  nn::Linear ffn1(d, f, &rng);
  nn::LayerNormLayer ln(d);
  nn::BiLstm lstm(d, d / 2, &rng);
  nn::Linear proj(d, d, &rng);
  std::unique_ptr<nn::TransformerEncoder> encoder = lm.CloneEncoder(&rng);
  for (nn::Module* m : std::vector<nn::Module*>{&attn, &ffn1, &ln, &lstm, &proj,
                                                 encoder.get()}) {
    m->Eval();
  }
  const int n = static_cast<int>(seq_lens.size());
  std::vector<tensor::Tensor> xd, xf;
  for (int t : seq_lens) {
    tensor::Tensor a = tensor::Tensor::Zeros({t, d});
    tensor::Tensor b = tensor::Tensor::Zeros({t, f});
    nn::NormalInit(&a, 1.0f, &rng);
    nn::NormalInit(&b, 1.0f, &rng);
    xd.push_back(a);
    xf.push_back(b);
  }
  tensor::Tensor prompt_rows = tensor::Tensor::Zeros({prompts, d});
  nn::NormalInit(&prompt_rows, 0.02f, &rng);
  std::vector<float> sink(static_cast<size_t>(n), 0.0f);

  // Wall time per call, with the pool spreading calls like ScoreBatch
  // spreads pairs, so the figures are comparable to score_us_per_pair.
  auto time_op = [&](const std::function<tensor::Tensor(int)>& op) {
    auto sweep = [&] {
      em::ForEachGraphFree(n, [&](int64_t i) {
        tensor::Tensor y = op(static_cast<int>(i));
        sink[static_cast<size_t>(i)] += y.data()[0];
      });
    };
    sweep();  // untimed: fills the scratch arenas
    int reps = 0;
    const double start = Now();
    do {
      sweep();
      ++reps;
    } while (Now() - start < 0.1);
    return 1e6 * (Now() - start) / (static_cast<double>(reps) * n);
  };
  OpCosts c;
  c.us_per_pair["nn.attn_us"] =
      layers * time_op([&](int i) { return attn.Forward(xd[i], nullptr); });
  c.us_per_pair["nn.ffn_linear_us"] =
      2 * layers * time_op([&](int i) { return ffn1.Forward(xd[i]); });
  c.us_per_pair["tensor.gelu_us"] =
      layers * time_op([&](int i) { return tensor::ops::Gelu(xf[i]); });
  c.us_per_pair["nn.layernorm_us"] =
      2 * layers * time_op([&](int i) { return ln.Forward(xd[i]); });
  c.us_per_pair["nn.embed_us"] = time_op([&](int i) {
    return encoder->EmbedRows(xd[i], std::vector<int>(xd[i].dim(0), 0),
                              nullptr);
  });
  c.us_per_pair["nn.mlm_head_us"] =
      time_op([&](int i) { return encoder->MlmLogits(xd[i], {0}); });
  c.us_per_pair["nn.prompt_lstm_us"] = time_op(
      [&](int) { return proj.Forward(lstm.Forward(prompt_rows)); });

  // Computed, not measured: multiply-adds x 2 and bytes each op reads and
  // writes (weights + activations, f32), from the shapes above.
  double flops = 0.0, bytes = 0.0;
  for (int t : seq_lens) {
    const double T = t;
    flops += layers * (2 * T * d * 3 * d + 4 * T * T * d + 2 * T * d * d +
                       4 * T * d * f) +
             2.0 * d * vocab;
    bytes += 4.0 * (layers * (4.0 * d * d + 2.0 * d * f + 8 * T * d +
                              2 * T * f + cfg.num_heads * T * T) +
                    vocab * d + 3 * T * d);
  }
  const double h = d / 2.0;
  const double lstm_flops = 2 * prompts * 2 * (2 * 4 * h * (d + h)) +
                            2.0 * prompts * d * d;
  c.flops_per_pair = flops / n + lstm_flops;
  c.bytes_per_pair = bytes / n;
  return c;
}

/// Sequence length of each pair's templated input (PromptModel's layout).
/// Encodes with a fresh encoder: the workload's own may hold memo entries
/// of other datasets.
std::vector<int> SequenceLengths(const Trained& t, const data::GemDataset& ds,
                                 const std::vector<data::PairExample>& pairs) {
  const int overhead = em::TemplateOverhead(em::TemplateType::kT2);
  const int budget = (t.lm->config().max_seq_len - overhead) / 2;
  const em::PairEncoder encoder = em::MakePairEncoder(*t.lm, t.dataset);
  std::vector<int> lens;
  for (size_t i = 0; i < pairs.size() && lens.size() < 128; ++i) {
    const em::EncodedPair x = encoder.Encode(ds, pairs[i]);
    lens.push_back(overhead +
                   std::min<int>(static_cast<int>(x.left_ids.size()), budget) +
                   std::min<int>(static_cast<int>(x.right_ids.size()), budget));
  }
  return lens;
}

/// Per-layer metrics every workload reports in its traced run.
void AddCommonLayerMetrics(Json* out, const Trained& t, const data::GemDataset& ds,
                           const ScoreCounters& sc,
                           const std::map<std::string, Tracer::Totals>& spans,
                           const std::vector<data::PairExample>& sample) {
  auto total = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total;
  };
  const double pairs = std::max<double>(1.0, static_cast<double>(sc.pairs));
  const double score_us = 1e6 * total("em.ScoreBatch") / pairs;
  out->Num("data.load_ms", 1e3 * t.load_data_s)
      .Num("lm.load_ms", 1e3 * t.load_lm_s)
      .Num("train.fit_s", t.fit_s)
      .Num("promptem.encode_us_per_pair",
           1e6 * total("em.PairEncoder::EncodeAll") / pairs)
      .Num("promptem.score_us_per_pair", score_us)
      .Num("promptem.score_cpu_us_per_pair", 1e6 * sc.cpu / pairs)
      .Num("promptem.batch_pairs",
           pairs / std::max<double>(1.0, static_cast<double>(sc.calls)));
  const OpCosts ops = TimeEncoderOps(*t.lm, SequenceLengths(t, ds, sample));
  double accounted = 0.0;
  for (const auto& [name, us] : ops.us_per_pair) {
    out->Num(name, us);
    accounted += us;
  }
  out->Num("nn.unaccounted_frac", score_us > 0 ? 1.0 - accounted / score_us : 0.0)
      .Num("tensor.flops_per_pair", ops.flops_per_pair)
      .Num("tensor.bytes_per_pair", ops.bytes_per_pair)
      .Num("core.tracked_peak_mb",
           static_cast<double>(core::MemTracker::PeakBytes()) / (1 << 20));
}

/// Per-span count, total and self time over the traced timed phase.
std::string SpanReport(const std::map<std::string, Tracer::Totals>& spans,
                       double phase_s) {
  Json j;
  for (const auto& [name, t] : spans) {
    Json s;
    s.Num("count", static_cast<double>(t.count))
        .Num("total_s", t.total)
        .Num("self_s", t.self)
        .Bool("top_level", t.top_level);
    j.Raw(name, s.str());
  }
  j.Num("phase_s", phase_s);
  return j.str();
}

/// Share of the top-level spans' time that the module spans below them
/// cover: 1 - self(top level) / total(top level).
double ModuleCoverage(const std::map<std::string, Tracer::Totals>& spans) {
  double total = 0.0, self = 0.0;
  for (const auto& [name, t] : spans) {
    if (!t.top_level) continue;
    total += t.total;
    self += t.self;
  }
  return total > 0 ? 1.0 - self / total : 0.0;
}

void AddRunStamp(Json* out, const lm::PretrainedLM& lm) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(
                    nn::ParameterFingerprint(lm.encoder())));
  out->Str("lm_fingerprint", fp)
      .Str("kernel_variant", tensor::kernels::KernelVariantName(
                                 tensor::kernels::ActiveKernelVariant()))
      .Num("pool_lanes", core::GetNumThreads())
      .Num("peak_rss_mb",
           static_cast<double>(core::MemTracker::ProcessPeakRssBytes()) /
               (1 << 20));
}

// ---------------------------------------------------------------------------
// offline-match: repeated whole streaming table matches (overlap blocker,
// top-k 10, chunk 4096). Each job starts with a cold encoder memo, as a
// fresh batch job would; jobs are identical, so their probability-stream
// digests must agree.

int Offline(const std::string& dir, const std::string& lm_prefix,
            double seconds, int setups, bool traced) {
  const std::vector<int> gold = LoadGold(dir);
  std::vector<double> setup_s;
  std::unique_ptr<Trained> t;
  for (int i = 0; i < setups; ++i) {
    t.reset();
    const double start = Now();
    t = SetUp(dir, lm_prefix);
    setup_s.push_back(Now() - start);
  }
  g_tracer.on = false;
  const data::GemDataset& ds = t->work;
  em::PairClassifier* model = t->promptem->last_model();
  data::OverlapBlocker::Config bc;
  bc.top_k = kTopK;

  // Untimed: the blocker's own candidate count, and gold completeness.
  size_t expected = 0, gold_found = 0;
  std::vector<data::PairExample> sample;
  {
    data::OverlapBlocker blocker(ds.left_table, ds.right_table, bc);
    for (const auto& p : blocker.Drain()) {
      ++expected;
      if (gold[static_cast<size_t>(p.right_index)] == p.left_index) ++gold_found;
      if (sample.size() < 128 && expected % 7 == 0) sample.push_back(p);
    }
  }

  em::MatchPipelineConfig pc;
  pc.chunk_size = kChunk;
  pc.top_k_matches = 10;
  pc.gold_label = [&gold](int l, int r) {
    return gold[static_cast<size_t>(r)] == l ? 1 : 0;
  };
  uint64_t digest = 0;
  size_t bad_probs = 0;
  pc.on_scored = [&](const data::PairExample&, em::ProbPair p) {
    if (!std::isfinite(p[1]) || p[1] < 0.0f || p[1] > 1.0f) ++bad_probs;
    uint32_t bits = 0;
    std::memcpy(&bits, &p[1], sizeof(bits));
    digest = core::Combine64(digest, bits);
  };

  ScoreCounters sc;
  std::vector<double> job_s, traced_job_s;
  std::vector<uint64_t> digests;
  size_t scored = 0, count_mismatches = 0, jobs = 0;
  double f1 = -1.0;
  const double cpu0 = CpuSeconds();
  const double phase0 = Now();
  while (jobs < 3 || Now() - phase0 < seconds) {
    // In a traced run, every other job is traced: the untraced ones give
    // the baseline for trace.overhead_frac.
    const bool span_this = traced && jobs % 2 == 1;
    g_tracer.on = span_this;
    const em::ChunkScoreFn scorer =
        MakeScorer(model, &*t->encoder, &ds, span_this, &sc);
    t->encoder->InvalidateCache();
    digest = 0;
    const double start = Now();
    em::MatchPipelineResult r;
    {
      SpanScope job("pipeline.MatchPipeline::Run");
      std::unique_ptr<data::Blocker> blocker;
      {
        SpanScope build("data.OverlapBlocker::OverlapBlocker");
        blocker = std::make_unique<data::OverlapBlocker>(ds.left_table,
                                                         ds.right_table, bc);
      }
      auto spanned = std::make_unique<SpannedBlocker>(std::move(blocker));
      em::MatchPipeline pipeline(spanned.get(), scorer, pc);
      r = pipeline.Run();
    }
    const double dt = Now() - start;
    (span_this ? traced_job_s : job_s).push_back(dt);
    g_tracer.on = false;
    digests.push_back(digest);
    scored += r.candidates;
    if (r.candidates != expected) ++count_mismatches;
    if (f1 < 0) f1 = 100.0 * r.metrics.F1();
    ++jobs;
  }
  const double phase_s = Now() - phase0;
  const double cpu_s = CpuSeconds() - cpu0;
  bool digest_ok = true;
  for (uint64_t d : digests) digest_ok = digest_ok && d == digests.front();

  Json out;
  char dg[32];
  std::snprintf(dg, sizeof(dg), "%016llx",
                static_cast<unsigned long long>(digests.front()));
  out.List("setup_s", setup_s)
      .List("job_s", job_s)
      .Num("jobs", static_cast<double>(jobs))
      .Num("count_mismatches", static_cast<double>(count_mismatches))
      .Num("failed", static_cast<double>(count_mismatches + bad_probs +
                                         (digest_ok ? 0 : 1)))
      .Num("pairs_per_job", static_cast<double>(expected))
      .Num("scored", static_cast<double>(scored))
      .Num("phase_s", phase_s)
      .Num("cpu_s", cpu_s)
      .Num("f1", f1)
      .Str("digest", dg)
      .Bool("digest_repeats", digest_ok)
      .Num("bad_probs", static_cast<double>(bad_probs));
  AddRunStamp(&out, *t->lm);
  if (traced) {
    const auto spans = g_tracer.Aggregate();
    auto total = [&](const char* n) {
      auto it = spans.find(n);
      return it == spans.end() ? 0.0 : it->second.total;
    };
    const double traced_pairs =
        static_cast<double>(expected * traced_job_s.size());
    Json layers;
    AddCommonLayerMetrics(&layers, *t, ds, sc, spans, sample);
    layers
        .Num("data.block_us_per_cand",
             1e6 * total("data.Blocker::NextChunk") / std::max(1.0, traced_pairs))
        .Num("data.block_build_ms",
             1e3 * total("data.OverlapBlocker::OverlapBlocker") /
                 std::max<double>(1.0, static_cast<double>(traced_job_s.size())))
        .Num("data.cands_per_left",
             static_cast<double>(expected) / static_cast<double>(ds.left_table.size()))
        .Num("data.pair_completeness",
             static_cast<double>(gold_found) / static_cast<double>(ds.left_table.size()))
        .Num("pipeline.full_match_s", Percentile(traced_job_s, 0.5))
        .Num("trace.overhead_frac",
             Percentile(traced_job_s, 0.5) / Percentile(job_s, 0.5) - 1.0);
    layers.Num("trace.module_coverage", ModuleCoverage(spans));
    out.Raw("layers", layers.str())
        .Raw("spans", SpanReport(spans, std::accumulate(traced_job_s.begin(),
                                                        traced_job_s.end(), 0.0)));
    g_tracer.Write(dir + "/trace_offline.json");
  }
  EmitResult(out);
  return 0;
}

// ---------------------------------------------------------------------------
// delta-rematch: FullMatch in set-up, then a seeded delta stream through
// IncrementalMatcher::ApplyDelta with a MinHash blocker (RAM HashIndex).

struct DeltaOp {
  char op;     // 'U' or 'D'
  bool left;
  int index;
  int record;  // row in delta_records, -1 for deletes
  int entity;  // source left of an appended right, else -1
};

int Delta(const std::string& dir, const std::string& lm_prefix, int setups,
          bool traced) {
  std::vector<int> gold = LoadGold(dir);
  auto records = data::LoadTableAuto(dir + "/delta_records");
  if (!records.ok()) Die("delta records: " + records.status().ToString());
  std::vector<std::vector<DeltaOp>> stream;
  {
    std::ifstream in(dir + "/deltas.csv");
    std::string line;
    while (std::getline(in, line)) {
      std::stringstream ss(line);
      std::string d, op, side, index, rec, entity;
      std::getline(ss, d, ',');
      std::getline(ss, op, ',');
      std::getline(ss, side, ',');
      std::getline(ss, index, ',');
      std::getline(ss, rec, ',');
      std::getline(ss, entity, ',');
      const size_t di = std::stoul(d);
      if (stream.size() <= di) stream.resize(di + 1);
      stream[di].push_back({op[0], side == "L", std::stoi(index),
                            std::stoi(rec), std::stoi(entity)});
    }
  }

  ScoreCounters sc;
  double block_build_s = 0.0;
  size_t block_builds = 0;
  bool span_this = false;
  auto make_matcher = [&](Trained* t, const data::GemDataset& ds,
                          const em::PairEncoder* encoder) {
    em::IncrementalMatcher::Config ic;
    ic.pipeline.chunk_size = kChunk;
    ic.pipeline.top_k_matches = 10;
    ic.pipeline.gold_label = [&gold](int l, int r) {
      return gold[static_cast<size_t>(r)] == l ? 1 : 0;
    };
    ic.encoder = encoder;
    em::PairClassifier* model = t->promptem->last_model();
    auto scorer_factory = [&, model, encoder](const data::GemDataset& d) {
      em::ChunkScoreFn untraced = MakeScorer(model, encoder, &d, false, &sc);
      em::ChunkScoreFn spanned = MakeScorer(model, encoder, &d, true, &sc);
      return em::ChunkScoreFn(
          [&span_this, untraced, spanned](const std::vector<data::PairExample>& c) {
            return span_this ? spanned(c) : untraced(c);
          });
    };
    auto blocker_factory =
        [&](const data::GemDataset& d) -> std::unique_ptr<data::Blocker> {
      data::MinHashBlocker::Config mc;
      mc.top_k = kTopK;
      const double start = Now();
      std::unique_ptr<data::Blocker> b;
      {
        SpanScope span("data.MinHashBlocker::MinHashBlocker");
        b = std::make_unique<data::MinHashBlocker>(d.left_table, d.right_table, mc);
      }
      if (span_this) {
        block_build_s += Now() - start;
        ++block_builds;
      }
      return std::make_unique<SpannedBlocker>(std::move(b));
    };
    return std::make_unique<em::IncrementalMatcher>(ds, scorer_factory,
                                                    blocker_factory, ic);
  };

  std::vector<double> setup_s;
  std::vector<double> full_match_s;
  std::unique_ptr<Trained> t;
  std::unique_ptr<em::IncrementalMatcher> inc;
  for (int i = 0; i < setups; ++i) {
    inc.reset();
    t.reset();
    const double start = Now();
    t = SetUp(dir, lm_prefix);
    const double fm0 = Now();
    inc = make_matcher(t.get(), t->work, &*t->encoder);
    inc->FullMatch();
    full_match_s.push_back(Now() - fm0);
    setup_s.push_back(Now() - start);
  }
  g_tracer.on = false;

  std::vector<double> lat_s, traced_lat_s;
  size_t failed = 0, rescored = 0, candidates = 0, reused = 0;
  em::MatchPipelineResult last;
  const double cpu0 = CpuSeconds();
  const double phase0 = Now();
  for (size_t d = 0; d < stream.size(); ++d) {
    em::RecordDelta delta;
    for (const DeltaOp& op : stream[d]) {
      if (op.op == 'D') {
        delta.deletes.push_back({op.left, op.index});
        continue;
      }
      em::RecordUpsert up;
      up.left = op.left;
      up.index = op.index;
      up.record = records.value()[static_cast<size_t>(op.record)];
      if (!op.left && static_cast<size_t>(op.index) == gold.size()) {
        gold.push_back(op.entity);
      }
      delta.upserts.push_back(std::move(up));
    }
    span_this = traced && d % 2 == 1;
    g_tracer.on = span_this;
    const double start = Now();
    {
      SpanScope span("pipeline.IncrementalMatcher::ApplyDelta");
      last = inc->ApplyDelta(delta);
    }
    const double dt = Now() - start;
    g_tracer.on = false;
    (span_this ? traced_lat_s : lat_s).push_back(dt);
    const em::DeltaStats& st = inc->last_stats();
    rescored += st.rescored;
    candidates += st.candidates;
    reused += st.reused;
  }
  const double phase_s = Now() - phase0;
  const double cpu_s = CpuSeconds() - cpu0;

  // Untimed check: the incremental result equals a fresh FullMatch over
  // the final tables — a fresh matcher with its own encoder, as a
  // restarted process would build.
  bool equal = false;
  const auto cache = inc->cache_stats();
  const size_t final_lefts = inc->dataset().left_table.size();
  {
    const data::GemDataset final_tables = inc->dataset();
    inc.reset();  // peak RSS should not count two matchers
    const em::PairEncoder fresh_encoder = em::MakePairEncoder(*t->lm, t->dataset);
    auto fresh = make_matcher(t.get(), final_tables, &fresh_encoder);
    const em::MatchPipelineResult full = fresh->FullMatch();
    equal = full.candidates == last.candidates && full.matches == last.matches &&
            full.metrics.tp == last.metrics.tp && full.metrics.fp == last.metrics.fp &&
            full.metrics.fn == last.metrics.fn && full.metrics.tn == last.metrics.tn &&
            full.top_matches.size() == last.top_matches.size();
    for (size_t i = 0; equal && i < full.top_matches.size(); ++i) {
      equal = full.top_matches[i].left_index == last.top_matches[i].left_index &&
              full.top_matches[i].right_index == last.top_matches[i].right_index &&
              full.top_matches[i].pos_prob == last.top_matches[i].pos_prob;
    }
  }
  if (!equal) ++failed;

  Json out;
  out.List("setup_s", setup_s)
      .List("latency_s", lat_s)
      .Num("deltas", static_cast<double>(stream.size()))
      .Num("failed", static_cast<double>(failed))
      .Num("scored", static_cast<double>(rescored))
      .Num("phase_s", phase_s)
      .Num("cpu_s", cpu_s)
      .Num("f1", 100.0 * last.metrics.F1())
      .Bool("matches_full_rematch", equal);
  AddRunStamp(&out, *t->lm);
  if (traced) {
    const auto spans = g_tracer.Aggregate();
    auto total = [&](const char* n) {
      auto it = spans.find(n);
      return it == spans.end() ? 0.0 : it->second.total;
    };
    const double n = std::max<double>(1.0, static_cast<double>(traced_lat_s.size()));
    const double traced_sum =
        std::accumulate(traced_lat_s.begin(), traced_lat_s.end(), 0.0);
    const double block_s = total("data.Blocker::NextChunk") +
                           total("data.MinHashBlocker::MinHashBlocker");
    const double score_s =
        total("em.PairEncoder::EncodeAll") + total("em.ScoreBatch");
    Json layers;
    std::vector<data::PairExample> sample;
    for (size_t i = 0; i < t->work.left_table.size() && sample.size() < 128; ++i) {
      const int r = static_cast<int>(i % t->work.right_table.size());
      sample.push_back({static_cast<int>(i), r, 0});
    }
    AddCommonLayerMetrics(&layers, *t, t->work, sc, spans, sample);
    const double deltas = static_cast<double>(stream.size());
    const double cands = static_cast<double>(candidates) / deltas;
    layers
        .Num("data.block_us_per_cand",
             1e6 * total("data.Blocker::NextChunk") / std::max(1.0, n * cands))
        .Num("data.block_build_ms", 1e3 * block_build_s / std::max<double>(1, block_builds))
        .Num("data.cands_per_left",
             cands / static_cast<double>(final_lefts))
        .Num("data.pair_completeness",
             static_cast<double>(last.metrics.tp + last.metrics.fn) /
                 static_cast<double>(std::count_if(gold.begin(), gold.end(),
                                                   [](int g) { return g >= 0; })))
        .Num("pipeline.full_match_s", Percentile(full_match_s, 0.5))
        .Num("pipeline.delta_block_ms", 1e3 * block_s / n)
        .Num("pipeline.delta_score_ms", 1e3 * score_s / n)
        .Num("pipeline.delta_other_ms", 1e3 * (traced_sum - block_s - score_s) / n)
        .Num("pipeline.rescored_per_delta",
             static_cast<double>(rescored) / deltas)
        .Num("pipeline.reuse_frac",
             static_cast<double>(reused) / std::max<double>(1, candidates))
        .Num("core.score_cache_hit_frac",
             static_cast<double>(cache.hits) /
                 std::max<double>(1, static_cast<double>(cache.hits + cache.misses)))
        .Num("trace.overhead_frac",
             Percentile(traced_lat_s, 0.5) / Percentile(lat_s, 0.5) - 1.0);
    layers.Num("trace.module_coverage", ModuleCoverage(spans));
    out.Raw("layers", layers.str()).Raw("spans", SpanReport(spans, traced_sum));
    g_tracer.Write(dir + "/trace_delta.json");
  }
  EmitResult(out);
  return 0;
}


// ---------------------------------------------------------------------------
// serve-open inputs and helpers.

struct ScheduledRequest {
  double offset_s = 0.0;
  std::vector<data::PairExample> pairs;  // label = gold
};

std::vector<ScheduledRequest> LoadSchedule(const std::string& dir) {
  std::vector<ScheduledRequest> schedule;
  for (const auto& row : LoadCsvInts(dir + "/schedule.csv")) {
    ScheduledRequest req;
    req.offset_s = 1e-6 * static_cast<double>(row[0]);
    for (size_t i = 1; i + 2 < row.size(); i += 3) {
      req.pairs.push_back({static_cast<int>(row[i]),
                           static_cast<int>(row[i + 1]),
                           static_cast<int>(row[i + 2])});
    }
    schedule.push_back(std::move(req));
  }
  if (schedule.empty()) Die("empty schedule in " + dir);
  return schedule;
}

std::vector<std::vector<data::PairExample>> LoadWarmup(const std::string& dir) {
  std::vector<std::vector<data::PairExample>> requests(1);
  for (const auto& row : LoadCsvInts(dir + "/warmup.csv")) {
    if (requests.back().size() == kWarmupPairsPerRequest) requests.emplace_back();
    requests.back().push_back(
        {static_cast<int>(row[0]), static_cast<int>(row[1]), 0});
  }
  return requests;
}

/// F1 (%) of predicted labels against the gold labels carried in pairs.
struct F1Count {
  em::Metrics m;
  void Add(const std::vector<data::PairExample>& pairs,
           const std::vector<int>& labels) {
    for (size_t i = 0; i < pairs.size() && i < labels.size(); ++i) {
      m.Count(labels[i], pairs[i].label);
    }
  }
};

/// CPU seconds (user + sys) of another process, from /proc/PID/stat.
double ProcessCpuSeconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc stat of " + std::to_string(pid));
  std::stringstream ss(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after ')' start at field 3 (state); utime and stime are 14, 15.
  for (int f = 3; f <= 15 && ss >> field; ++f) {
    if (f == 14 || f == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------------
// loadgen: the serve-open generator against a running promptem_serve.
// Two threads (sender = this thread, one receiver polling both
// connections) and two loopback connections. Phases: an untimed warm-up
// touching every work record; the timed open loop (seeded Poisson
// schedule, each request timed from its scheduled send); then a short
// closed-loop phase at saturation that measures capacity.

class Client {
 public:
  struct Slot {
    double scheduled = 0.0;
    double sent = 0.0;
    double received = 0.0;
    size_t pairs = 0;
    int answers = 0;
    bool ok = false;
    std::vector<int> labels;
  };

  Client(int port, size_t slots) : slots_(slots) {
    for (int& fd : fds_) {
      fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 || connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
        Die("cannot connect to 127.0.0.1:" + std::to_string(port));
      }
      // Frames go out as header + payload writes; without this, Nagle's
      // algorithm would hold the payload for the peer's delayed ACK.
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    receiver_ = std::thread([this] { Receive(); });
  }

  ~Client() {
    for (int fd : fds_) shutdown(fd, SHUT_RDWR);
    receiver_.join();
    for (int fd : fds_) close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Send(size_t id, const std::vector<data::PairExample>& pairs,
            double scheduled, int deadline_ms) {
    serve::MatchRequest req;
    req.id = id;
    req.pairs = pairs;
    req.deadline_ms = deadline_ms;
    const std::string frame = serve::SerializeRequest(req);
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_[id].scheduled = scheduled;
      slots_[id].pairs = pairs.size();
      slots_[id].sent = Now();
      ++outstanding_;
    }
    if (!serve::WriteFrame(fds_[id % 2], frame).ok()) Die("send failed");
  }

  /// Blocks until at most `limit` requests are unanswered, or `until`.
  bool WaitOutstanding(size_t limit, double until) {
    std::unique_lock<std::mutex> lock(mu_);
    while (outstanding_ > limit) {
      if (Now() >= until) return false;
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    return true;
  }

  Slot slot(size_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[id];
  }
  size_t unexpected() {
    std::lock_guard<std::mutex> lock(mu_);
    return unexpected_;
  }

 private:
  void Receive() {
    pollfd pfds[2] = {{fds_[0], POLLIN, 0}, {fds_[1], POLLIN, 0}};
    int open = 2;
    while (open > 0) {
      if (poll(pfds, 2, 100) < 0 && errno != EINTR) break;
      for (pollfd& p : pfds) {
        if (p.fd < 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
        std::string payload;
        if (!serve::ReadFrame(p.fd, &payload).ok()) {
          p.fd = -1;
          --open;
          continue;
        }
        const double now = Now();
        auto resp = serve::ParseMatchResponse(payload);
        std::lock_guard<std::mutex> lock(mu_);
        if (!resp.ok() || resp.value().id >= slots_.size()) {
          ++unexpected_;
          continue;
        }
        Slot& s = slots_[resp.value().id];
        s.answers += 1;
        if (s.answers == 1) {
          s.received = now;
          s.ok = resp.value().status == serve::ResponseStatus::kOk &&
                 resp.value().probs.size() == s.pairs &&
                 resp.value().labels.size() == s.pairs;
          s.labels = resp.value().labels;
          if (outstanding_ > 0) --outstanding_;
        }
        cv_.notify_all();
      }
    }
  }

  int fds_[2] = {-1, -1};
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  size_t outstanding_ = 0;
  size_t unexpected_ = 0;
  std::thread receiver_;  // last: it uses every member above
};

int Loadgen(const std::string& dir, int port, long pid,
            const std::string& lm_prefix) {
  const std::vector<ScheduledRequest> schedule = LoadSchedule(dir);
  const auto warmup = LoadWarmup(dir);
  const size_t n = schedule.size();
  const size_t max_capacity_requests = 20000;
  Client client(port, warmup.size() + n + max_capacity_requests);

  // Warm-up: closed loop, one request in flight, untimed.
  size_t id = 0;
  for (const auto& pairs : warmup) {
    client.Send(id++, pairs, Now(), 0);
    if (!client.WaitOutstanding(0, Now() + 60.0)) Die("warm-up timed out");
  }
  const size_t open0 = id;

  // Open loop: send each request at its scheduled time, whatever the
  // daemon's state; latency counts from the scheduled send.
  const double cpu0 = ProcessCpuSeconds(pid);
  const double start = Now() + 0.05;
  for (size_t i = 0; i < n; ++i) {
    const double due = start + schedule[i].offset_s;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(std::chrono::duration<double>(due))));
    client.Send(id++, schedule[i].pairs, due, kDeadlineMs);
  }
  const bool drained = client.WaitOutstanding(0, Now() + kDeadlineMs / 1e3 + 5.0);
  const double cpu_s = ProcessCpuSeconds(pid) - cpu0;

  std::vector<double> latency_ms, lag_ms;
  size_t failed = 0, ok_pairs = 0;
  F1Count f1;
  double first_sent = 1e300, last_sent = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Client::Slot s = client.slot(open0 + i);
    lag_ms.push_back(1e3 * (s.sent - s.scheduled));
    first_sent = std::min(first_sent, s.sent);
    last_sent = std::max(last_sent, s.sent);
    if (!s.ok || s.answers != 1) {
      ++failed;
      continue;
    }
    latency_ms.push_back(1e3 * (s.received - s.scheduled));
    ok_pairs += s.pairs;
    f1.Add(schedule[i].pairs, s.labels);
  }
  const double offered_rate =
      static_cast<double>(n - 1) / (schedule.back().offset_s - schedule.front().offset_s);
  const double achieved_rate =
      static_cast<double>(n - 1) / std::max(1e-9, last_sent - first_sent);

  // Capacity: closed loop at saturation, 2 x kCapacityWindow in flight,
  // cycling through the schedule's requests (records already warm). More
  // requests are in flight than the daemon's max_batch, so every sweep is
  // full width; with fewer, the coalesced widths settled into run-dependent
  // patterns that moved capacity by ~20 %.
  const size_t cap0 = id;
  const double cap_start = Now();
  size_t k = 0;
  while (Now() - cap_start < kCapacitySeconds && id < cap0 + max_capacity_requests) {
    if (!client.WaitOutstanding(2 * kCapacityWindow - 1, Now() + 30.0)) {
      Die("capacity phase stalled");
    }
    client.Send(id++, schedule[k++ % n].pairs, Now(), 0);
  }
  client.WaitOutstanding(0, Now() + 30.0);
  // Pairs answered after the ramp-up, over the time from the end of the
  // ramp-up to the last response.
  const double counted_from = cap_start + kCapacityRampSeconds;
  double cap_end = counted_from;
  size_t cap_pairs = 0, cap_failed = 0;
  for (size_t i = cap0; i < id; ++i) {
    const Client::Slot s = client.slot(i);
    if (!s.ok || s.answers != 1) {
      ++cap_failed;
      continue;
    }
    if (s.received < counted_from) continue;
    cap_pairs += s.pairs;
    cap_end = std::max(cap_end, s.received);
  }
  const size_t unexpected = client.unexpected();

  Json out;
  out.List("latency_ms", latency_ms)
      .Num("requests", static_cast<double>(n))
      .Num("failed", static_cast<double>(failed))
      .Num("ok_pairs", static_cast<double>(ok_pairs))
      .Num("cpu_s", cpu_s)
      .Num("f1", 100.0 * f1.m.F1())
      .Num("gen_lag_ms_p99", Percentile(lag_ms, 0.99))
      .Num("offered_rate", offered_rate)
      .Num("achieved_rate", achieved_rate)
      .Num("capacity_pairs_per_s",
           static_cast<double>(cap_pairs) / std::max(1e-9, cap_end - counted_from))
      .Num("capacity_requests", static_cast<double>(id - cap0))
      .Num("capacity_failed", static_cast<double>(cap_failed))
      .Num("unexpected_frames", static_cast<double>(unexpected))
      .Bool("drained", drained)
      .Bool("generator_ok", Percentile(lag_ms, 0.99) <= kMaxGenLagMs &&
                                achieved_rate >= kMinOfferedShare * offered_rate);
  // The daemon runs the same build and pool setting as this process; its
  // peak RSS is read from /proc by the caller.
  AddRunStamp(&out, *LoadLm(lm_prefix));
  EmitResult(out);
  return 0;
}

// ---------------------------------------------------------------------------
// serve-trace: the serve-open schedule replayed in-process through
// serve::BatchQueue and MatchService::HandleBatch with the daemon's queue
// settings, plus the PromptEM encode/score split measured on the same
// coalesced batches with an identically trained model.

int ServeTrace(const std::string& dir, const std::string& lm_prefix) {
  const std::vector<ScheduledRequest> schedule = LoadSchedule(dir);
  const auto warmup = LoadWarmup(dir);

  // The daemon's set-up: load, then MatchService::TrainAll.
  const double t0 = Now();
  data::GemDataset served = LoadDataset(dir + "/serve");
  const double t1 = Now();
  std::unique_ptr<lm::PretrainedLM> lm = LoadLm(lm_prefix);
  const double t2 = Now();
  core::Rng rng(kTrainSeed);
  data::LowResourceSplit split = data::MakeCountSplit(served, kLabels, &rng);
  serve::MatchService::Config config;
  config.kind = data::BenchmarkKind::kSemiHomo;
  config.default_matcher = "PromptEM";
  config.matchers = {"PromptEM"};
  const int left_offset = static_cast<int>(kTrainRows);
  const int right_offset = [&] {
    data::GemDataset train = LoadDataset(dir + "/train");
    return static_cast<int>(train.right_table.size());
  }();
  serve::MatchService service(lm.get(), std::move(served), std::move(split),
                              MakeRunOptions(), config);
  const core::Status trained = service.TrainAll();
  if (!trained.ok()) Die("TrainAll: " + trained.ToString());
  const double t3 = Now();

  serve::BatchQueue::Config qc;  // the daemon's defaults
  serve::BatchQueue queue(qc);
  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<double> queue_wait_us, widths, sweep_ms, traced_sweep_per_req,
      plain_sweep_per_req;
  std::vector<std::vector<data::PairExample>> batches;
  std::vector<double> received(warmup.size() + schedule.size(), 0.0);
  std::vector<int> status(received.size(), -1);
  std::vector<std::vector<int>> labels(received.size());
  size_t completed = 0;
  std::atomic<bool> timed{false};

  std::thread scorer([&] {
    size_t batch_index = 0;
    while (true) {
      std::vector<serve::PendingRequest> batch = queue.DequeueBatch();
      if (batch.empty()) break;
      const bool record = timed;
      // Every other batch is traced; the others are the overhead baseline.
      Tracer::muted = batch_index++ % 2 == 0;
      std::vector<data::PairExample> pairs;
      for (const auto& p : batch) {
        if (record) {
          queue_wait_us.push_back(
              1e6 * std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - p.enqueue_time)
                        .count());
        }
        pairs.insert(pairs.end(), p.request.pairs.begin(), p.request.pairs.end());
      }
      const double width = static_cast<double>(batch.size());
      const double start = Now();
      {
        SpanScope span("serve.MatchService::HandleBatch");
        service.HandleBatch(std::move(batch));
      }
      const double dt = Now() - start;
      if (record) {
        widths.push_back(width);
        sweep_ms.push_back(1e3 * dt);
        (Tracer::muted ? plain_sweep_per_req : traced_sweep_per_req)
            .push_back(dt / width);
        batches.push_back(std::move(pairs));
      }
    }
  });

  auto submit = [&](size_t slot, const std::vector<data::PairExample>& pairs,
                    bool deadline) {
    serve::MatchRequest req;
    req.id = slot;
    req.pairs = pairs;
    req.deadline_ms = deadline ? kDeadlineMs : 0;
    const std::string wire = serve::SerializeRequest(req);
    serve::PendingRequest pending;
    {
      SpanScope span("serve.protocol::ParseMatchRequest");
      auto parsed = serve::ParseMatchRequest(wire);
      if (!parsed.ok()) Die("request does not round-trip");
      pending.request = std::move(parsed).value();
    }
    pending.enqueue_time = std::chrono::steady_clock::now();
    pending.has_deadline = deadline;
    pending.deadline = pending.enqueue_time + std::chrono::milliseconds(kDeadlineMs);
    pending.complete = [&, slot](serve::MatchResponse response) {
      {
        SpanScope span("serve.protocol::SerializeResponse");
        const std::string wire_out = serve::SerializeResponse(response);
        (void)wire_out;
      }
      std::lock_guard<std::mutex> lock(mu);
      received[slot] = Now();
      status[slot] = static_cast<int>(response.status);
      labels[slot] = response.labels;
      ++completed;
      done_cv.notify_all();
    };
    return queue.TryEnqueue(std::move(pending));
  };

  size_t slot = 0;
  for (const auto& pairs : warmup) {
    if (!submit(slot, pairs, false)) Die("warm-up shed");
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return completed == slot + 1; });
    ++slot;
  }
  const size_t open0 = slot;
  timed = true;
  g_tracer.on = true;
  std::vector<double> lag_ms, scheduled, sent;
  size_t shed = 0;
  const double start = Now() + 0.05;
  for (const ScheduledRequest& req : schedule) {
    const double due = start + req.offset_s;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due))));
    sent.push_back(Now());
    lag_ms.push_back(1e3 * (sent.back() - due));
    scheduled.push_back(due);
    if (!submit(slot, req.pairs, true)) {
      ++shed;
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
    }
    ++slot;
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return completed == slot; });
  }
  const double phase_s = Now() - start;
  g_tracer.on = false;
  queue.Close();
  scorer.join();
  const auto replay_spans = g_tracer.Aggregate();

  // The encode/score split on the replayed batches, with an identically
  // trained model and a warm encoder memo (the daemon's steady state).
  std::unique_ptr<Trained> t = SetUp(dir, lm_prefix);
  ScoreCounters sc;
  {
    std::vector<data::PairExample> warm;
    for (const auto& w : warmup) {
      for (auto p : w) {
        p.left_index -= left_offset;
        p.right_index -= right_offset;
        warm.push_back(p);
      }
    }
    t->encoder->EncodeAll(t->work, warm);
  }
  g_tracer.on = true;
  const em::ChunkScoreFn scorer_fn =
      MakeScorer(t->promptem->last_model(), &*t->encoder, &t->work, true, &sc);
  for (auto batch : batches) {
    for (auto& p : batch) {
      p.left_index -= left_offset;
      p.right_index -= right_offset;
    }
    scorer_fn(batch);
  }
  g_tracer.on = false;

  std::vector<double> latency_ms;
  size_t failed = shed;
  F1Count f1;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const size_t s = open0 + i;
    if (status[s] != static_cast<int>(serve::ResponseStatus::kOk)) {
      if (status[s] >= 0) ++failed;
      continue;
    }
    latency_ms.push_back(1e3 * (received[s] - scheduled[i]));
    f1.Add(schedule[i].pairs, labels[s]);
  }
  const auto spans = g_tracer.Aggregate();
  auto mean_span_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : 1e6 * it->second.total / static_cast<double>(it->second.count);
  };
  std::vector<data::PairExample> sample;
  for (const auto& req : schedule) {
    for (auto p : req.pairs) {
      if (sample.size() >= 128) break;
      p.left_index -= left_offset;
      p.right_index -= right_offset;
      sample.push_back(p);
    }
  }
  const double offered =
      static_cast<double>(schedule.size() - 1) /
      (schedule.back().offset_s - schedule.front().offset_s);
  const double achieved =
      static_cast<double>(schedule.size() - 1) / (sent.back() - sent.front());
  Json layers;
  t->load_data_s = t1 - t0;
  t->load_lm_s = t2 - t1;
  t->fit_s = t3 - t2;
  AddCommonLayerMetrics(&layers, *t, t->work, sc, spans, sample);
  // A request's latency is generator lag + decode + queue wait + the sweep
  // of its batch + respond. The open loop idles between batches, so the
  // stages are matched against the mean latency instead of the phase.
  const double decode_us = mean_span_us("serve.protocol::ParseMatchRequest");
  const double respond_us = mean_span_us("serve.protocol::SerializeResponse");
  double request_sweep_ms = 0.0, answered = 0.0;
  for (size_t i = 0; i < widths.size(); ++i) {
    request_sweep_ms += widths[i] * sweep_ms[i];
    answered += widths[i];
  }
  request_sweep_ms /= std::max(1.0, answered);
  const double stages_ms =
      Mean(lag_ms) + request_sweep_ms +
      (decode_us + Mean(queue_wait_us) + respond_us) / 1e3;
  layers.Num("serve.decode_us", decode_us)
      .Num("serve.respond_us", respond_us)
      .Num("serve.queue_wait_us_p50", Percentile(queue_wait_us, 0.5))
      .Num("serve.queue_wait_us_p99", Percentile(queue_wait_us, 0.99))
      .Num("serve.batch_width", Mean(widths))
      .Num("serve.sweep_ms", Mean(sweep_ms))
      .Num("serve.shed_frac",
           static_cast<double>(shed) / static_cast<double>(schedule.size()))
      .Num("serve.gen_lag_ms_p99", Percentile(lag_ms, 0.99))
      .Num("serve.offered_vs_achieved", achieved / offered)
      .Num("serve.replay_p50_ms", Percentile(latency_ms, 0.5))
      .Num("serve.replay_p99_ms", Percentile(latency_ms, 0.99))
      .Num("trace.overhead_frac", Percentile(traced_sweep_per_req, 0.5) /
                                      Percentile(plain_sweep_per_req, 0.5) -
                                      1.0)
      .Num("trace.module_coverage", stages_ms / Mean(latency_ms));
  Json out;
  out.Num("requests", static_cast<double>(schedule.size()))
      .Num("failed", static_cast<double>(failed))
      .Num("f1", 100.0 * f1.m.F1())
      .Num("phase_s", phase_s)
      .Raw("layers", layers.str())
      .Raw("spans", SpanReport(replay_spans, phase_s));
  AddRunStamp(&out, *lm);
  g_tracer.Write(dir + "/trace_serve.json");
  EmitResult(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::IgnoreSigPipe();
  baselines::EnsureBaselineMatchersRegistered();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Die("refusing to record from a sanitizer build");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to record from a non-Release build (") +
        PERFBENCH_BUILD_TYPE + ")");
  }
  const std::vector<std::string> args(argv + 1, argv + argc);
  auto need = [&](size_t n) {
    if (args.size() != n) Die("bad arguments; see the header of harness.cc");
  };
  if (args.empty()) need(1);
  const std::string& cmd = args[0];
  if (cmd == "lm") {
    need(2);
    auto lm = lm::GetOrCreateSharedLM(args[1], kLmSeed);
    std::printf("LM %s ready: fingerprint %016llx\n", args[1].c_str(),
                static_cast<unsigned long long>(
                    nn::ParameterFingerprint(lm->encoder())));
    return 0;
  }
  if (cmd == "gen") {
    need(5);
    return Gen(args[1], std::stoull(args[2]), std::stod(args[3]), args[4]);
  }
  if (cmd == "offline") {
    need(6);
    return Offline(args[1], args[2], std::stod(args[3]), std::stoi(args[4]),
                   args[5] == "1");
  }
  if (cmd == "delta") {
    need(5);
    return Delta(args[1], args[2], std::stoi(args[3]), args[4] == "1");
  }
  if (cmd == "loadgen") {
    need(5);
    return Loadgen(args[1], std::stoi(args[2]), std::stol(args[3]), args[4]);
  }
  if (cmd == "serve-trace") {
    need(3);
    return ServeTrace(args[1], args[2]);
  }
  Die("unknown subcommand " + cmd);
}
