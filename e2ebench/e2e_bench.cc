// End-to-end benchmark: XML bytes -> succinct store -> path-query answers.
//
// One process runs one named workload with one client in a closed loop
// (the next call starts only after the previous one returned):
//
//   dblp-paged   Table-2 queries on the paper's paged store, read-only.
//   dblp-bp      the same document and queries with nav_mode=bp.
//   dblp-update  seeded insert/delete batches under /dblp, each committed
//                through the WAL and followed by one pass of the queries.
//
// Inputs come from --seed only: GenerateDataset, QueriesForDataset and
// DescendantVariants run in-process, and the store under test receives
// just the generated XML, query strings and article fragments.  Every
// answer is checked against the navigational baseline evaluated over the
// same XML (for dblp-update, over the document reassembled from the
// benchmark's own list of articles after each batch).
//
// --trace 0 measures the end-to-end metrics.  --trace 1 runs a fixed
// amount of work three times: once untraced, as the baseline of the
// tracing overhead, then twice with spans around each public library call
// and counter snapshots at the same boundaries.  It checks that the two
// traced runs did identical work, writes the spans and per-query rows
// under --work-dir, and reports the per-layer metrics.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_util.h"
#include "baseline/navigational_engine.h"
#include "common/random.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "harness.h"
#include "nok/executor.h"
#include "nok/nok_partition.h"
#include "nok/pattern_tree.h"
#include "nok/physical_matcher.h"
#include "nok/planner.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"
#include "xml/dom.h"

namespace nok {
namespace e2e {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  double scale;        ///< GenerateDataset scale of the dblp document.
  NavMode nav_mode;
  bool updates;        ///< Writable WAL store with insert/delete batches.
  int setups;          ///< Set-ups per run; setup_s sums the phase minima.
  /// Fixed work of one traced run: query passes (read workloads) or
  /// update batches (dblp-update).
  int trace_rounds;
};

constexpr Workload kWorkloads[] = {
    {"dblp-paged", 0.05, NavMode::kPaged, false, 5, 4},
    {"dblp-bp", 0.05, NavMode::kBp, false, 5, 2},
    {"dblp-update", 0.002, NavMode::kPaged, true, 15, 2},
};

/// Update ops per dblp-update batch: two inserts and two deletes, so the
/// document keeps its size however long the run lasts.
constexpr int kOpsPerBatch = 4;

const char* const kIndexNames[] = {"tag", "value", "id", "path"};

const char* const kOperators[] = {
    "AnchorScan",     "TagIndexProbe", "ValueIndexProbe",    "PathIndexProbe",
    "SemiJoinFilter", "NokMatch",      "StructuralSemiJoin", "Output"};

using Answers = std::vector<DeweyId>;

struct QueryCase {
  std::string id;     ///< "Q1".."Q12", "Q1d".."Q12d".
  std::string xpath;
  Answers expected;   ///< Reference answers, document order.
};

// ---------------------------------------------------------------------------
// Inputs and reference answers.

/// Seed of DescendantVariants: which '/' step of each Q*d query becomes
/// '//'.  Fixed to the default of `nokq gen`, so every workload seed runs
/// the same 24 query shapes and the seed varies only the document; with
/// the variants drawn per seed, one seed's mix held an 80 ms query where
/// another's did not, and qps moved 2x between seeds.
constexpr uint64_t kVariantSeed = 42;

std::vector<QueryCase> Table2Queries(const GeneratedDataset& ds) {
  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  const std::vector<CategoryQuery> variants =
      DescendantVariants(queries, kVariantSeed);
  queries.insert(queries.end(), variants.begin(), variants.end());
  std::vector<QueryCase> out;
  for (const CategoryQuery& q : queries) out.push_back({q.id, q.xpath, {}});
  return out;
}

DeweyId DomDewey(const DomNode* node) {
  std::vector<uint32_t> components;
  for (const DomNode* n = node; n != nullptr; n = n->parent) {
    components.push_back(n->parent == nullptr ? 0 : n->child_index);
  }
  std::reverse(components.begin(), components.end());
  return DeweyId(std::move(components));
}

/// Fills every query's expected answers from the navigational baseline
/// (an in-memory DOM with its own tag/value indexes) over `xml`.
Status ComputeReference(const std::string& xml,
                        std::vector<QueryCase>* queries) {
  NOK_ASSIGN_OR_RETURN(DomTree dom, DomTree::Parse(xml));
  NavigationalEngine engine(&dom);
  for (QueryCase& q : *queries) {
    NOK_ASSIGN_OR_RETURN(PatternTree pattern, ParseXPath(q.xpath));
    NOK_ASSIGN_OR_RETURN(std::vector<const DomNode*> nodes,
                         engine.Evaluate(pattern));
    q.expected.clear();
    for (const DomNode* n : nodes) q.expected.push_back(DomDewey(n));
    std::sort(q.expected.begin(), q.expected.end());
  }
  return Status::OK();
}

bool SameAnswers(const Answers& got, const Answers& want) {
  if (got == want) return true;
  Answers sorted = got;
  std::sort(sorted.begin(), sorted.end());
  return sorted == want;
}

/// The `article` records of a dblp document, in document order.
std::vector<std::string> SplitArticles(const std::string& xml) {
  static const std::string kOpen = "<article ";
  static const std::string kClose = "</article>";
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = xml.find(kOpen, pos)) != std::string::npos) {
    const size_t end = xml.find(kClose, pos);
    if (end == std::string::npos) break;
    out.push_back(xml.substr(pos, end + kClose.size() - pos));
    pos = end + kClose.size();
  }
  return out;
}

std::string AssembleDblp(const std::vector<std::string>& articles) {
  std::string xml = "<dblp>\n";
  for (const std::string& a : articles) xml += a + "\n";
  return xml + "</dblp>";
}

// ---------------------------------------------------------------------------
// Counters read through the public stats getters.  They are cumulative,
// so the work of one call is the difference of two snapshots.

using Counters = std::map<std::string, uint64_t>;

Counters Snapshot(DocumentStore* store) {
  Counters c;
  const BufferPool::Stats tree = store->tree()->buffer_pool()->stats();
  c["storage.pool.tree.fetches"] = tree.fetches;
  c["storage.pool.tree.hits"] = tree.hits;
  c["storage.pool.tree.misses"] = tree.misses;
  c["storage.pool.tree.evictions"] = tree.evictions;
  BTree* const indexes[] = {store->tag_index(), store->value_index(),
                            store->id_index(), store->path_index()};
  for (size_t i = 0; i < 4; ++i) {
    const BufferPool::Stats s = indexes[i]->buffer_pool()->stats();
    const std::string prefix = std::string("btree.") + kIndexNames[i];
    c[prefix + ".fetches"] = s.fetches;
    c[prefix + ".hits"] = s.hits;
  }
  const StringStore::NavStats nav = store->tree()->nav_stats();
  c["encoding.paged.pages_scanned"] = nav.pages_scanned;
  c["encoding.paged.pages_skipped"] =
      nav.pages_skipped + nav.pages_skipped_by_tag;
  c["encoding.bp.steps"] = nav.bp_steps;
  c["encoding.bp.tag_blocks_skipped"] = nav.bp_tag_blocks_skipped;
  const WalWriter::Stats wal = store->wal_stats();
  c["storage.wal.commits"] = wal.commits;
  c["storage.wal.records"] = wal.records_logged;
  c["storage.wal.bytes"] = wal.bytes_logged;
  c["storage.wal.syncs"] = wal.wal_syncs;
  return c;
}

void AddDelta(const Counters& after, const Counters& before, Counters* into) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*into)[name] += value - (it == before.end() ? 0 : it->second);
  }
}

/// Per-layer record of one addressable unit of work: a query id ("Q10";
/// "B3.Q10" after update batch 3), an update batch ("B3.update"), a
/// commit ("B3.commit"), or a store open.
struct Row {
  std::string kind;  ///< "query", "update", "commit", "open", "setup".
  uint64_t count = 0;
  Counters counters;                      ///< Summed work counters.
  std::map<std::string, double> seconds;  ///< Summed self/operator times.
};
using Rows = std::map<std::string, Row>;

void AddQueryTrace(const QueryStats& stats, const ExecutionTrace& trace,
                   Row* row) {
  for (const QueryStats::TreeStats& t : stats.trees) {
    row->counters["nok.candidates"] += t.candidates;
    row->counters["nok.bindings"] += t.bindings;
  }
  row->counters["nok.results"] += stats.results;
  for (const OperatorStats& op : trace.operators) {
    const std::string prefix = "nok.op." + op.op;
    row->counters[prefix + ".rows_in"] += op.rows_in;
    row->counters[prefix + ".rows_out"] += op.rows_out;
    row->counters[prefix + ".pages"] += op.pages;
    row->seconds[prefix] += op.seconds;
  }
}

/// Adds every span's self time to the row it belongs to.
void AddSpanSelfTimes(const Tracer& tracer, Rows* rows) {
  const std::vector<double> self = tracer.SelfTimes();
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    Row& row = (*rows)[span.row];
    if (row.kind.empty()) row.kind = span.row;  // "setup" and "open".
    row.seconds[span.name] += self[i];
  }
}

// ---------------------------------------------------------------------------
// Store set-up.

struct SetupResult {
  std::unique_ptr<DocumentStore> store;
  double build_s = 0, flush_s = 0, open_s = 0;
  std::map<std::string, uint64_t> file_bytes;  ///< Component -> bytes.
  uint64_t total_bytes = 0;
};

std::map<std::string, uint64_t> FileBytes(const std::string& dir) {
  std::map<std::string, uint64_t> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) out[e.path().filename().string()] = e.file_size();
  }
  return out;
}

DocumentStore::Options OpenOptions(const Workload& w, const std::string& dir) {
  DocumentStore::Options options;
  options.dir = dir;
  options.nav_mode = w.nav_mode;
  options.read_only = !w.updates;
  options.wal.enabled = w.updates;
  return options;
}

/// Opens the store as the workload queries it (spanned "encoding.open").
Result<std::unique_ptr<DocumentStore>> OpenStore(const Workload& w,
                                                 const std::string& dir,
                                                 Tracer* tracer,
                                                 double* seconds) {
  ScopedSpan span(tracer, "encoding.open");
  const double start = NowSeconds();
  auto store = DocumentStore::OpenDir(OpenOptions(w, dir));
  *seconds = NowSeconds() - start;
  return store;
}

/// In-memory XML to a store ready to query: Build + Flush + close +
/// OpenDir with the workload's options.
Status SetupStore(const Workload& w, const std::string& xml,
                  const std::string& dir, Tracer* tracer, SetupResult* out) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  ScopedSpan setup(tracer, "setup");
  DocumentStore::Options build;
  build.dir = dir;
  build.nav_mode = w.nav_mode;
  double start = NowSeconds();
  Result<std::unique_ptr<DocumentStore>> built = [&] {
    ScopedSpan span(tracer, "encoding.build");
    return DocumentStore::Build(xml, build);
  }();
  if (!built.ok()) return built.status();
  out->build_s = NowSeconds() - start;
  start = NowSeconds();
  {
    ScopedSpan span(tracer, "encoding.flush");
    NOK_RETURN_IF_ERROR((*built)->Flush());
    built->reset();
  }
  out->flush_s = NowSeconds() - start;
  NOK_ASSIGN_OR_RETURN(out->store, OpenStore(w, dir, tracer, &out->open_s));
  out->file_bytes = FileBytes(dir);
  out->total_bytes = 0;
  for (const auto& [name, bytes] : out->file_bytes) out->total_bytes += bytes;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query evaluation.

/// QueryEngine::Evaluate spelled out call by call, with a span around
/// each module's public entry point.  Same options, same work.
Result<Answers> TracedEvaluate(DocumentStore* store, const std::string& xpath,
                               Tracer* tracer, QueryStats* stats,
                               ExecutionTrace* trace) {
  const QueryOptions options;
  int span = tracer->Begin("nok.parse");
  Result<PatternTree> pattern = ParseXPath(xpath);
  if (!pattern.ok()) {
    tracer->End(span);
    return pattern.status();
  }
  const NokPartition partition = PartitionPattern(*pattern);
  tracer->End(span);

  span = tracer->Begin("nok.plan");
  const std::vector<TagId> tag_table =
      ResolvePatternTags(*pattern, *store->tags());
  Planner planner(store);
  Result<QueryPlan> plan = planner.Plan(partition, tag_table, options);
  tracer->End(span);
  if (!plan.ok()) return plan.status();

  span = tracer->Begin("nok.execute");
  Executor executor(store);
  Result<Answers> out =
      executor.Run(*plan, partition, tag_table, options, stats, trace);
  tracer->End(span);
  return out;
}

/// Outcome tally of one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  std::vector<double> query_s;   ///< Latency of each Evaluate.
  std::vector<double> update_s;  ///< Latency of each Insert/DeleteSubtree.
  std::vector<double> commit_s;  ///< Latency of each Flush.
  double busy_s = 0;  ///< Time inside library calls of the measured loop.
  /// Per round (a query pass, or an update batch with its pass): queries
  /// per second of library time, and the 95th-percentile query latency.
  std::vector<double> round_qps;
  std::vector<double> round_p95_s;

  void Fail(const std::string& what, const Status& status) {
    ++failed;
    if (failed <= 5) {
      fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
              status.ToString().c_str());
    }
  }

  void Check(const QueryCase& q, const Result<Answers>& got,
             const std::string& where) {
    ++attempted;
    if (!got.ok()) {
      Fail(where + " " + q.id, got.status());
      return;
    }
    if (!SameAnswers(*got, q.expected)) {
      ++failed;
      ++mismatched;
      if (mismatched <= 5) {
        fprintf(stderr, "MISMATCH %s %s (%s): %zu answers, reference %zu\n",
                where.c_str(), q.id.c_str(), q.xpath.c_str(), got->size(),
                q.expected.size());
      }
    }
  }
};

/// Everything one traced run needs besides the store.
struct TraceContext {
  Tracer tracer;
  Rows rows;
};

/// One pass over the query mix.  Untraced: QueryEngine::Evaluate, timed.
/// Traced: TracedEvaluate with a counter snapshot on each side, recorded
/// under row `row_prefix + query id`.
void QueryPass(DocumentStore* store, QueryEngine* engine,
               const std::vector<QueryCase>& queries, TraceContext* trace,
               const std::string& row_prefix, Tally* tally,
               std::vector<Answers>* answers = nullptr) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryCase& q = queries[i];
    if (trace == nullptr) {
      const double start = NowSeconds();
      Result<Answers> got = engine->Evaluate(q.xpath);
      const double seconds = NowSeconds() - start;
      tally->query_s.push_back(seconds);
      tally->busy_s += seconds;
      tally->Check(q, got, row_prefix + "query");
      if (answers != nullptr && got.ok()) (*answers)[i] = *got;
      continue;
    }
    const std::string row_id = row_prefix + q.id;
    Row& row = trace->rows[row_id];
    row.kind = "query";
    ++row.count;
    trace->tracer.set_row(row_id);
    const Counters before = Snapshot(store);
    QueryStats stats;
    ExecutionTrace exec;
    Result<Answers> got = [&] {
      ScopedSpan span(&trace->tracer, "query");
      return TracedEvaluate(store, q.xpath, &trace->tracer, &stats, &exec);
    }();
    AddDelta(Snapshot(store), before, &row.counters);
    AddQueryTrace(stats, exec, &row);
    tally->Check(q, got, row_prefix + "traced query");
  }
}

// ---------------------------------------------------------------------------
// The dblp-update loop.

struct UpdateOp {
  bool insert = false;
  uint32_t position = 0;  ///< Child index under /dblp.
};

/// Seeded update stream: each batch holds two inserts and two deletes in
/// random order.  Every position is uniform over the sibling range, but
/// the two ops of a kind are antithetic: they sit at fractions u and
/// 1 - u of the range.  An op rewrites the index entries of every
/// following sibling, so its cost falls linearly from about 1 s at the
/// start of /dblp to about 10 ms at its end; paired this way, a batch
/// costs about the same whatever u is, and a run of a few batches does
/// not measure the luck of the draw.
class UpdateStream {
 public:
  UpdateStream(uint64_t seed, std::vector<std::string> donors)
      : rng_(seed * 0x9E3779B97F4A7C15ull + 0x5EED),
        donors_(std::move(donors)) {}

  std::vector<UpdateOp> NextBatch(size_t articles) {
    const double u_insert = rng_.NextDouble();
    const double u_delete = rng_.NextDouble();
    const double fractions[kOpsPerBatch] = {u_insert, 1 - u_insert, u_delete,
                                            1 - u_delete};
    int order[kOpsPerBatch] = {0, 1, 2, 3};  // 0, 1 insert; 2, 3 delete.
    Shuffle(order);
    std::vector<UpdateOp> ops;
    size_t n = articles;
    for (int i : order) {
      UpdateOp op;
      op.insert = i < 2;
      const size_t range = op.insert ? n + 1 : n;  // Insert may append.
      op.position = static_cast<uint32_t>(std::min<size_t>(
          static_cast<size_t>(fractions[i] * static_cast<double>(range)),
          range - 1));
      n = op.insert ? n + 1 : n - 1;
      ops.push_back(op);
    }
    return ops;
  }

  /// The next article to insert (cycled from the donor document).
  const std::string& NextDonor() {
    return donors_[next_donor_++ % donors_.size()];
  }

 private:
  void Shuffle(int (&items)[kOpsPerBatch]) {
    for (int i = kOpsPerBatch - 1; i > 0; --i) {
      std::swap(items[i], items[rng_.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
  }

  Random rng_;
  std::vector<std::string> donors_;
  size_t next_donor_ = 0;
};

/// Applies one batch to the store and to the benchmark's own article
/// list, commits it with one Flush, recomputes the reference answers on
/// the reassembled document, then runs one pass of the query mix.
/// Returns false once the store handle is unusable.
bool UpdateBatch(int batch, DocumentStore* store, QueryEngine* engine,
                 UpdateStream* stream, std::vector<std::string>* articles,
                 std::vector<QueryCase>* queries, TraceContext* trace,
                 Tally* tally) {
  const std::string prefix = "B" + std::to_string(batch) + ".";
  Tracer* tracer = trace == nullptr ? nullptr : &trace->tracer;
  Row* update_row = nullptr;
  Counters before;
  if (trace != nullptr) {
    update_row = &trace->rows[prefix + "update"];
    update_row->kind = "update";
    tracer->set_row(prefix + "update");
    before = Snapshot(store);
  }
  for (const UpdateOp& op : stream->NextBatch(articles->size())) {
    const std::string fragment = op.insert ? stream->NextDonor() : "";
    Status status;
    const double start = NowSeconds();
    {
      ScopedSpan span(tracer, op.insert ? "encoding.insert" : "encoding.delete");
      status = op.insert
                   ? store->InsertSubtree(DeweyId::Root(), op.position, fragment)
                   : store->DeleteSubtree(DeweyId::Root().Child(op.position));
    }
    const double seconds = NowSeconds() - start;
    if (status.ok() && op.insert) {
      articles->insert(articles->begin() + op.position, fragment);
    } else if (status.ok()) {
      articles->erase(articles->begin() + op.position);
    }
    tally->update_s.push_back(seconds);
    tally->busy_s += seconds;
    ++tally->attempted;
    if (update_row != nullptr) {
      ++update_row->count;
      ++update_row->counters[op.insert ? "encoding.inserts"
                                       : "encoding.deletes"];
    }
    if (!status.ok()) {
      tally->Fail(prefix + (op.insert ? "insert" : "delete"), status);
      return false;
    }
  }
  Row* commit_row = nullptr;
  if (trace != nullptr) {
    AddDelta(Snapshot(store), before, &update_row->counters);
    commit_row = &trace->rows[prefix + "commit"];
    commit_row->kind = "commit";
    ++commit_row->count;
    tracer->set_row(prefix + "commit");
    before = Snapshot(store);
  }
  const double start = NowSeconds();
  Status status;
  {
    ScopedSpan span(tracer, "storage.wal.commit");
    status = store->Flush();
  }
  const double seconds = NowSeconds() - start;
  tally->commit_s.push_back(seconds);
  tally->busy_s += seconds;
  ++tally->attempted;
  if (trace != nullptr) {
    AddDelta(Snapshot(store), before, &commit_row->counters);
  }
  if (!status.ok()) {
    tally->Fail(prefix + "commit", status);
    return false;
  }
  status = ComputeReference(AssembleDblp(*articles), queries);
  if (!status.ok()) {
    tally->Fail(prefix + "reference", status);
    return false;
  }
  QueryPass(store, engine, *queries, trace, prefix, tally);
  return true;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Obj(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit));
  }
  return obj.Render();
}

void PrintMetric(const Metric& m, const std::string& note) {
  printf("  %-44s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
         note.c_str());
}

std::string Fixed(double v, int digits) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Samples(size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// Prints the JSON result line; `correct` also needs every op to have
/// succeeded with the right answer.
int Finish(const Tally& tally, bool correct,
           const std::vector<Metric>& metrics) {
  correct = correct && tally.failed == 0 && tally.attempted > 0;
  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", std::max<uint64_t>(tally.attempted, 1))
      .Int("failed", tally.failed)
      .Raw("metrics", MetricsJson(metrics));
  printf("%s\n", result.Render().c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The benchmark proper.

struct Bench {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 30;
  std::string work_dir;
  std::string store_dir;

  GeneratedDataset ds;
  std::vector<QueryCase> queries;
  std::vector<std::string> donors;  ///< dblp-update insert fragments.

  Status Prepare() {
    GenOptions gen;
    gen.scale = w->scale;
    gen.seed = seed;
    ds = GenerateDataset(Dataset::kDblp, gen);
    queries = Table2Queries(ds);
    if (w->updates) {
      gen.seed = seed + 1000003;  // A different document supplies inserts.
      donors = SplitArticles(GenerateDataset(Dataset::kDblp, gen).xml);
      if (donors.empty()) return Status::Internal("no donor articles");
    }
    return ComputeReference(ds.xml, &queries);
  }

  /// Timings of each set-up in a run.
  struct SetupTimes {
    std::vector<double> build, flush, open;

    /// setup_s: the fastest time of each phase, summed.  Set-ups that
    /// fall in a slow phase of a shared machine, or meet a slow
    /// fdatasync, do not count.
    double Fastest() const {
      return Quantile(build, 0) + Quantile(flush, 0) + Quantile(open, 0);
    }
  };

  /// Runs `count` set-ups into `dir` and keeps the last store.
  Status Setups(Tracer* tracer, int count, const std::string& dir,
                SetupResult* last, SetupTimes* times) {
    for (int i = 0; i < count; ++i) {
      if (tracer != nullptr) tracer->set_row("setup");
      *last = SetupResult();
      NOK_RETURN_IF_ERROR(SetupStore(*w, ds.xml, dir, tracer, last));
      times->build.push_back(last->build_s);
      times->flush.push_back(last->flush_s);
      times->open.push_back(last->open_s);
    }
    return Status::OK();
  }

  /// Runs the workload's load on `store` while `more(round)` holds: one
  /// query pass per round, or on dblp-update one update batch followed by
  /// its pass.  Returns the number of rounds run.
  Result<int> RunRounds(DocumentStore* store, TraceContext* trace,
                        Tally* tally, const std::function<bool(int)>& more) {
    QueryEngine engine(store);
    std::vector<std::string> articles = SplitArticles(ds.xml);
    std::vector<QueryCase> run_queries = queries;
    UpdateStream stream(seed, donors);
    int round = 0;
    for (; more(round); ++round) {
      const double busy_before = tally->busy_s;
      const size_t first_query = tally->query_s.size();
      if (!w->updates) {
        QueryPass(store, &engine, run_queries, trace, "", tally);
      } else if (!UpdateBatch(round, store, &engine, &stream, &articles,
                              &run_queries, trace, tally)) {
        return Status::Internal("update batch " + std::to_string(round) +
                                " failed");
      }
      const std::vector<double> latencies(
          tally->query_s.begin() + static_cast<std::ptrdiff_t>(first_query),
          tally->query_s.end());
      tally->round_qps.push_back(
          Ratio(static_cast<double>(latencies.size()),
                tally->busy_s - busy_before));
      tally->round_p95_s.push_back(Quantile(latencies, 0.95));
    }
    return round;
  }

  void Describe(const SetupResult& setup) const {
    printf("workload %s seed %llu: dblp scale %g, %llu nodes, %zu XML bytes, "
           "%zu tree pages, nav_mode=%s%s\n",
           w->name, static_cast<unsigned long long>(seed), w->scale,
           static_cast<unsigned long long>(setup.store->stats().node_count),
           ds.xml.size(), setup.store->tree()->chain_length(),
           NavModeName(w->nav_mode),
           w->updates ? ", writable with WAL" : ", read-only");
  }

  /// dblp-bp: one pass on a second, paged handle over the same files,
  /// compared answer by answer with the bp handle's answers.
  void CrossCheckPaged(const std::vector<Answers>& bp_answers, Tally* tally) {
    Workload paged = *w;
    paged.nav_mode = NavMode::kPaged;
    double unused = 0;
    auto store = OpenStore(paged, store_dir, nullptr, &unused);
    if (!store.ok()) {
      tally->Fail("paged cross-check open", store.status());
      return;
    }
    QueryEngine engine(store->get());
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryCase bp = queries[i];
      bp.expected = bp_answers[i];
      std::sort(bp.expected.begin(), bp.expected.end());
      tally->Check(bp, engine.Evaluate(bp.xpath), "paged-vs-bp");
    }
  }

  int RunUntraced() {
    Tally tally;
    SetupResult setup;
    SetupTimes setup_s;
    Status s = Setups(nullptr, 1, store_dir, &setup, &setup_s);
    if (!s.ok()) return Abort("setup", s);
    Describe(setup);
    DocumentStore* store = setup.store.get();
    const double xml_bytes = static_cast<double>(ds.xml.size());
    const double bytes_per_xml = static_cast<double>(setup.total_bytes) / xml_bytes;

    // Untimed warm-up pass; its answers are checked like every other.
    Tally warmup;
    std::vector<Answers> answers(queries.size());
    QueryEngine engine(store);
    QueryPass(store, &engine, queries, nullptr, "warm-up ", &warmup, &answers);
    if (w->nav_mode == NavMode::kBp) CrossCheckPaged(answers, &warmup);
    tally.attempted += warmup.attempted;
    tally.failed += warmup.failed;

    // The other set-ups run between rounds, spread evenly over the
    // measured time, into a spare directory.  Back to back, the 15
    // set-ups of dblp-update fit in one phase of the shared machine and
    // setup_s read 0.040 s or 0.055 s by the phase; spread out, they
    // sample the phases as the rounds do.  Their time is not measured.
    const std::string spare_dir = work_dir + "/setup-" + w->name;
    double spare_s = 0;
    auto setups_due = [&](double measured) {
      const size_t done = setup_s.build.size();
      return static_cast<int>(done) < w->setups &&
             measured >= seconds * static_cast<double>(done) / w->setups;
    };
    auto spare_setup = [&] {
      const double t = NowSeconds();
      SetupResult spare;
      s = Setups(nullptr, 1, spare_dir, &spare, &setup_s);
      spare_s += NowSeconds() - t;
    };
    const double start = NowSeconds();
    const Result<int> rounds = RunRounds(store, nullptr, &tally, [&](int) {
      while (s.ok() && setups_due(NowSeconds() - start - spare_s)) {
        spare_setup();
      }
      return NowSeconds() - start - spare_s < seconds;
    });
    const double wall = NowSeconds() - start - spare_s;
    while (s.ok() && setups_due(seconds)) spare_setup();
    if (!s.ok()) return Abort("setup", s);
    uint64_t end_bytes = 0;
    for (const auto& [name, bytes] : FileBytes(store_dir)) end_bytes += bytes;

    const std::vector<Metric> metrics = {
        {"setup_s", "s", setup_s.Fastest()},
        // The fastest round of the run.  On a shared machine a round runs
        // in a fast or a slow phase of about ten seconds (about 290 vs 185
        // q/s on dblp-paged); the median falls between the two modes by
        // their mix, while the fastest round is set by the code under test.
        {"qps", "1/s", Quantile(tally.round_qps, 1)},
        {"query_p95_ms", "ms", Quantile(tally.round_p95_s, 0) * 1e3},
        {"store_bytes_per_xml_byte", "ratio", bytes_per_xml},
    };
    PrintMetric(metrics[0], "Build+Flush+OpenDir, sum of phase minima over " +
                                Samples(setup_s.build.size()) +
                                " set-ups spread over the run");
    const std::string per_round =
        " of " + Samples(tally.round_qps.size()) +
        (w->updates ? " batches" : " passes");
    PrintMetric(metrics[1], "max" + per_round + " (median " +
                                Fixed(Median(tally.round_qps), 1) + "); " +
                                Samples(tally.query_s.size()) + " queries in " +
                                Fixed(wall, 2) + " s without set-ups (" +
                                std::to_string(rounds.ok() ? *rounds : 0) +
                                " rounds)");
    PrintMetric({"query_p50_ms", "ms", Quantile(tally.query_s, 0.5) * 1e3},
                Samples(tally.query_s.size()));
    PrintMetric(metrics[2], "min" + per_round + " of 24 queries each (median " +
                                Fixed(Median(tally.round_p95_s) * 1e3, 3) + ")");
    if (w->updates) {
      PrintMetric({"update_p50_ms", "ms", Median(tally.update_s) * 1e3},
                  Samples(tally.update_s.size()) + " Insert/DeleteSubtree");
      PrintMetric({"commit_p50_ms", "ms", Median(tally.commit_s) * 1e3},
                  Samples(tally.commit_s.size()) + " WAL Flush");
    } else {
      printf("  %-44s %16s\n", "update_p50_ms", "n/a (read-only workload)");
      printf("  %-44s %16s\n", "commit_p50_ms", "n/a (read-only workload)");
    }
    PrintMetric(metrics[3], "after set-up");
    if (w->updates) {
      PrintMetric({"store_bytes_per_xml_byte.end", "ratio",
                   static_cast<double>(end_bytes) / xml_bytes},
                  "after the last batch");
    }
    PrintMetric({"failed_frac", "ratio",
                 Ratio(static_cast<double>(tally.failed),
                       static_cast<double>(tally.attempted))},
                std::to_string(tally.failed) + " of " +
                    std::to_string(tally.attempted) + " ops");
    return Finish(tally, true, metrics);
  }

  /// The fixed work of the traced mode, from a fresh store: read
  /// workloads reopen the set-up files, dblp-update rebuilds them.  With
  /// `trace` null the same work runs untraced, as the baseline of
  /// trace.overhead_frac.  Returns the wall time of the work.
  Result<double> FixedRun(TraceContext* trace, Tally* tally) {
    Tracer* tracer = trace == nullptr ? nullptr : &trace->tracer;
    SetupResult setup;
    if (w->updates) {
      if (tracer != nullptr) tracer->set_row("setup");
      NOK_RETURN_IF_ERROR(SetupStore(*w, ds.xml, store_dir, tracer, &setup));
    } else {
      if (tracer != nullptr) tracer->set_row("open");
      NOK_ASSIGN_OR_RETURN(setup.store,
                           OpenStore(*w, store_dir, tracer, &setup.open_s));
    }
    const double start = NowSeconds();
    NOK_RETURN_IF_ERROR(
        RunRounds(setup.store.get(), trace, tally,
                  [&](int round) { return round < w->trace_rounds; })
            .status());
    return NowSeconds() - start;
  }

  int RunTraced() {
    Tally tally;
    TraceContext first, second;
    SetupResult setup;
    SetupTimes setup_s;
    Status s = Setups(&first.tracer, w->setups, store_dir, &setup, &setup_s);
    if (!s.ok()) return Abort("setup", s);
    Describe(setup);
    // Read workloads reopen the set-up files; the set-up handle must be
    // closed first so every traced run starts from the same cold state.
    const std::map<std::string, uint64_t> file_bytes = setup.file_bytes;
    setup.store.reset();

    const Result<double> untraced_s = FixedRun(nullptr, &tally);
    if (!untraced_s.ok()) return Abort("untraced run", untraced_s.status());
    const Result<double> traced_s = FixedRun(&first, &tally);
    if (!traced_s.ok()) return Abort("traced run 1", traced_s.status());
    const Result<double> again = FixedRun(&second, &tally);
    if (!again.ok()) return Abort("traced run 2", again.status());

    const bool deterministic = CompareRuns(first.rows, second.rows);
    AddSpanSelfTimes(first.tracer, &first.rows);
    const std::string stem = work_dir + "/trace/" + std::string(w->name) +
                             "-seed" + std::to_string(seed);
    WriteTraceFiles(stem, first);
    PrintSelfTimes(first.tracer);

    std::vector<Metric> metrics =
        LayerMetrics(first.rows, file_bytes, setup_s);
    metrics.push_back(
        {"trace.overhead_frac", "ratio", Ratio(*traced_s, *untraced_s) - 1});
    for (const Metric& m : metrics) PrintMetric(m, "");
    printf("  counters of two traced runs with seed %llu: %s\n",
           static_cast<unsigned long long>(seed),
           deterministic ? "identical" : "DIFFERENT");
    return Finish(tally, deterministic, metrics);
  }

  /// Prints every work counter that differs between two traced runs.
  static bool CompareRuns(const Rows& a, const Rows& b) {
    bool same = a.size() == b.size();
    for (const auto& [id, row] : a) {
      auto it = b.find(id);
      if (it == b.end()) {
        printf("  determinism: row %s missing from run 2\n", id.c_str());
        same = false;
        continue;
      }
      if (row.counters == it->second.counters) continue;
      same = false;
      for (const auto& [name, value] : row.counters) {
        auto other = it->second.counters.find(name);
        const uint64_t v2 =
            other == it->second.counters.end() ? 0 : other->second;
        if (v2 != value) {
          printf("  determinism: %s %s: %llu vs %llu\n", id.c_str(),
                 name.c_str(), static_cast<unsigned long long>(value),
                 static_cast<unsigned long long>(v2));
        }
      }
    }
    return same;
  }

  void WriteTraceFiles(const std::string& stem, const TraceContext& trace) {
    std::error_code ec;
    fs::create_directories(fs::path(stem).parent_path(), ec);
    std::ofstream(stem + ".spans.json") << trace.tracer.ToChromeJson();
    JsonObject rows;
    for (const auto& [id, row] : trace.rows) {
      JsonObject counters, seconds;
      for (const auto& [name, v] : row.counters) counters.Int(name, v);
      for (const auto& [name, v] : row.seconds) seconds.Num(name, v);
      rows.Obj(id, JsonObject()
                       .Str("kind", row.kind)
                       .Int("count", row.count)
                       .Obj("counters", counters)
                       .Obj("seconds", seconds));
    }
    std::ofstream(stem + ".rows.json")
        << JsonObject()
               .Str("workload", w->name)
               .Int("seed", seed)
               .Obj("rows", rows)
               .Render()
        << "\n";
    printf("  trace written: %s.spans.json, %s.rows.json\n", stem.c_str(),
           stem.c_str());
  }

  static void PrintSelfTimes(const Tracer& tracer) {
    std::map<std::string, std::pair<uint64_t, double>> by_name;
    const std::vector<double> self = tracer.SelfTimes();
    for (size_t i = 0; i < self.size(); ++i) {
      auto& entry = by_name[tracer.spans()[i].name];
      ++entry.first;
      entry.second += self[i];
    }
    printf("  self time per span (traced run 1):\n");
    for (const auto& [name, entry] : by_name) {
      printf("    %-24s %8llu spans %12.3f ms\n", name.c_str(),
             static_cast<unsigned long long>(entry.first),
             entry.second * 1e3);
    }
  }

  std::vector<Metric> LayerMetrics(
      const Rows& rows, const std::map<std::string, uint64_t>& file_bytes,
      const SetupTimes& setup_s) const {
    // Sum rows by kind.
    Row query, update, commit;
    for (const auto& [id, row] : rows) {
      Row* into = row.kind == "query"    ? &query
                  : row.kind == "update" ? &update
                  : row.kind == "commit" ? &commit
                                         : nullptr;
      if (into == nullptr) continue;
      into->count += row.count;
      for (const auto& [name, v] : row.counters) into->counters[name] += v;
      for (const auto& [name, v] : row.seconds) into->seconds[name] += v;
    }
    const double nq = static_cast<double>(query.count);
    const double nu = static_cast<double>(update.count);
    const double nc = static_cast<double>(commit.count);
    auto qc = [&](const std::string& name) {
      return static_cast<double>(query.counters[name]);
    };
    auto file = [&](const std::string& name) {
      auto it = file_bytes.find(name);
      return it == file_bytes.end() ? 0.0 : static_cast<double>(it->second);
    };

    std::vector<Metric> m;
    m.push_back({"nok.parse_us", "us", Ratio(query.seconds["nok.parse"], nq) * 1e6});
    m.push_back({"nok.plan_us", "us", Ratio(query.seconds["nok.plan"], nq) * 1e6});
    m.push_back({"nok.execute_us", "us", Ratio(query.seconds["nok.execute"], nq) * 1e6});
    m.push_back({"nok.candidates_per_query", "count", Ratio(qc("nok.candidates"), nq)});
    m.push_back({"nok.bindings_per_query", "count", Ratio(qc("nok.bindings"), nq)});
    m.push_back({"nok.match_yield", "ratio",
                 Ratio(qc("nok.bindings"), qc("nok.candidates"))});
    for (const char* op : kOperators) {
      const std::string p = std::string("nok.op.") + op;
      m.push_back({p + ".rows_in", "count", Ratio(qc(p + ".rows_in"), nq)});
      m.push_back({p + ".rows_out", "count", Ratio(qc(p + ".rows_out"), nq)});
      m.push_back({p + ".pages", "count", Ratio(qc(p + ".pages"), nq)});
      m.push_back({p + ".ms", "ms", Ratio(query.seconds[p], nq) * 1e3});
    }
    m.push_back({"encoding.build_s", "s", Quantile(setup_s.build, 0)});
    m.push_back({"encoding.flush_s", "s", Quantile(setup_s.flush, 0)});
    m.push_back({"encoding.open_s", "s", Quantile(setup_s.open, 0)});
    m.push_back({"encoding.paged.pages_scanned_per_query", "count",
                 Ratio(qc("encoding.paged.pages_scanned"), nq)});
    m.push_back({"encoding.paged.pages_skipped_per_query", "count",
                 Ratio(qc("encoding.paged.pages_skipped"), nq)});
    m.push_back({"encoding.bp.steps_per_query", "count",
                 Ratio(qc("encoding.bp.steps"), nq)});
    m.push_back({"encoding.bp.tag_blocks_skipped_per_query", "count",
                 Ratio(qc("encoding.bp.tag_blocks_skipped"), nq)});
    m.push_back({"encoding.insert_ms", "ms",
                 Ratio(update.seconds["encoding.insert"],
                       static_cast<double>(update.counters["encoding.inserts"])) *
                     1e3});
    m.push_back({"encoding.delete_ms", "ms",
                 Ratio(update.seconds["encoding.delete"],
                       static_cast<double>(update.counters["encoding.deletes"])) *
                     1e3});
    m.push_back({"encoding.tree_bytes", "B", file(store_files::kTree)});
    m.push_back({"encoding.values_bytes", "B", file(store_files::kValues)});
    m.push_back({"encoding.sidecar_bytes", "B",
                 file(store_files::kBpIndex) + file(store_files::kSynopsis)});
    const char* const files[] = {store_files::kTagIdx, store_files::kValIdx,
                                 store_files::kIdIdx, store_files::kPathIdx};
    for (size_t i = 0; i < 4; ++i) {
      const std::string p = std::string("btree.") + kIndexNames[i];
      m.push_back({p + ".fetches_per_query", "count", Ratio(qc(p + ".fetches"), nq)});
      m.push_back({p + ".hit_rate", "ratio", Ratio(qc(p + ".hits"), qc(p + ".fetches"))});
      m.push_back({p + ".fetches_per_update", "count",
                   Ratio(static_cast<double>(update.counters[p + ".fetches"]), nu)});
      m.push_back({p + ".bytes", "B", file(files[i])});
    }
    m.push_back({"storage.pool.tree.fetches_per_query", "count",
                 Ratio(qc("storage.pool.tree.fetches"), nq)});
    m.push_back({"storage.pool.tree.hit_rate", "ratio",
                 Ratio(qc("storage.pool.tree.hits"), qc("storage.pool.tree.fetches"))});
    m.push_back({"storage.pool.tree.misses", "count", qc("storage.pool.tree.misses")});
    m.push_back({"storage.pool.tree.evictions", "count",
                 qc("storage.pool.tree.evictions")});
    m.push_back({"storage.pool.tree.fetches_per_update", "count",
                 Ratio(static_cast<double>(update.counters["storage.pool.tree.fetches"]),
                       nu)});
    m.push_back({"storage.wal.commit_ms", "ms",
                 Ratio(commit.seconds["storage.wal.commit"], nc) * 1e3});
    m.push_back({"storage.wal.bytes_per_commit", "B",
                 Ratio(static_cast<double>(commit.counters["storage.wal.bytes"]), nc)});
    m.push_back({"storage.wal.records_per_commit", "count",
                 Ratio(static_cast<double>(commit.counters["storage.wal.records"]), nc)});
    m.push_back({"storage.wal.syncs_per_commit", "count",
                 Ratio(static_cast<double>(commit.counters["storage.wal.syncs"]), nc)});
    return m;
  }

  int Abort(const std::string& what, const Status& status) {
    fprintf(stderr, "error: %s: %s\n", what.c_str(), status.ToString().c_str());
    return 1;
  }
};

int Usage(const std::string& why) {
  fprintf(stderr,
          "%s\nusage: e2e_bench --workload <dblp-paged|dblp-bp|dblp-update> "
          "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
          why.c_str());
  return 2;
}

/// Flags are checked by run.py; only what would make the run meaningless
/// is rejected here.
int Main(int argc, char** argv) {
  using bench::FlagDouble;
  using bench::FlagInt;
  using bench::FlagValue;
  Bench bench;
  const std::string workload = FlagValue(argc, argv, "workload", "");
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) bench.w = &w;
  }
  const int seed = FlagInt(argc, argv, "seed", 1);
  bench.seed = static_cast<uint64_t>(seed);
  bench.seconds = FlagDouble(argc, argv, "seconds", 30);
  const int trace = FlagInt(argc, argv, "trace", 0);
  bench.work_dir = FlagValue(argc, argv, "work-dir", "");
  if (bench.w == nullptr) return Usage("unknown --workload " + workload);
  if (seed < 0 || !(bench.seconds > 0)) {
    return Usage("--seed must be >= 0 and --seconds > 0");
  }
  if (trace != 0 && trace != 1) return Usage("--trace takes 0 or 1");
  if (bench.work_dir.empty()) return Usage("--work-dir is required");
  bench.store_dir = bench.work_dir + "/store-" + bench.w->name;

  const Status s = bench.Prepare();
  if (!s.ok()) return bench.Abort("inputs", s);
  return trace == 1 ? bench.RunTraced() : bench.RunUntraced();
}

}  // namespace
}  // namespace e2e
}  // namespace nok

int main(int argc, char** argv) { return nok::e2e::Main(argc, argv); }
