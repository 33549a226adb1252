// nokq: command-line front end for the nokxml library.
//
//   nokq build  <file.xml> <store-dir> [--checksum]   build a store
//   nokq query  <store-dir> <xpath> [--values] [--strategy auto|scan|tag|
//               value] [--explain] [--no-header-skip]
//               [--nav-mode paged|bp]
//   nokq explain <store-dir> <xpath> [--strategy ...] [--nav-mode paged|bp]
//                                  print the query plan + operator trace
//   nokq stream <file.xml> <xpath>              single-pass evaluation
//   nokq stats  <store-dir>                     Table-1 style statistics
//   nokq insert <store-dir> <parent-dewey> <index> <fragment.xml> [--wal]
//   nokq delete <store-dir> <dewey> [--wal]
//   nokq verify <store-dir>                     offline integrity scrub
//   nokq recover <store-dir>                    WAL crash recovery + verify
//   nokq gen    <dataset> <store-dir>           generate + build + queries
//   nokq bench  <store-dir> [--threads N] [--repeat K]
//               [--queries file] [--json path]
//               [--engine nok|di|twigstack|nav|region]
//                                               parallel query driver
//
// `bench --engine` other than nok replays the workload through one of the
// in-memory baseline engines; it needs the dataset.xml that `nokq gen`
// drops next to the store.

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/di_engine.h"
#include "baseline/interval_encoding.h"
#include "baseline/navigational_engine.h"
#include "baseline/region_engine.h"
#include "baseline/twigstack_engine.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/store_verifier.h"
#include "nokxml.h"
#include "storage/file.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage:\n"
          "  nokq build  <file.xml> <store-dir> [--checksum]\n"
          "  nokq query  <store-dir> <xpath> [--values] [--explain]\n"
          "              [--strategy auto|scan|tag|value]\n"
          "              [--no-header-skip] [--nav-mode paged|bp]\n"
          "  nokq explain <store-dir> <xpath> [--nav-mode paged|bp]\n"
          "              [--strategy auto|scan|tag|value]\n"
          "  nokq stream <file.xml> <xpath>\n"
          "  nokq stats  <store-dir>\n"
          "  nokq insert <store-dir> <parent-dewey> <index> <frag.xml>\n"
          "              [--wal]\n"
          "  nokq delete <store-dir> <dewey> [--wal]\n"
          "  nokq verify <store-dir>\n"
          "  nokq recover <store-dir>\n"
          "  nokq gen    <dataset> <store-dir> [--scale S] [--seed N]\n"
          "              (datasets: author address catalog treebank dblp\n"
          "               parts)\n"
          "  nokq bench  <store-dir> [--threads N] [--repeat K]\n"
          "              [--queries file] [--json path]\n"
          "              [--engine nok|di|twigstack|nav|region]\n"
          "              [--nav-mode paged|bp]\n");
  return 2;
}

int Fail(const nok::Status& status) {
  fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Final durability step of the mutating commands.  A failed flush is data
/// loss — it must produce a diagnostic, not a bare exit code.
int FinishFlush(nok::DocumentStore* store) {
  nok::Status s = store->Flush();
  if (!s.ok()) return Fail(s);
  return 0;
}

/// Parses a non-negative decimal integer, rejecting trailing garbage (the
/// failure mode atoi silently maps to 0), a sign or leading space (which
/// strtoul would accept) and values past 32 bits.
nok::Result<uint32_t> ParseIndex(const std::string& text) {
  if (text.empty()) {
    return nok::Status::InvalidArgument("empty child index");
  }
  if (!isdigit(static_cast<unsigned char>(text[0]))) {
    return nok::Status::InvalidArgument("bad child index: " + text);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long v = strtoul(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || v > UINT32_MAX) {
    return nok::Status::InvalidArgument("bad child index: " + text);
  }
  return static_cast<uint32_t>(v);
}

nok::Result<nok::DeweyId> ParseDewey(const std::string& text) {
  std::vector<uint32_t> components;
  size_t start = 0;
  while (start <= text.size()) {
    size_t dot = text.find('.', start);
    if (dot == std::string::npos) dot = text.size();
    auto component = ParseIndex(text.substr(start, dot - start));
    if (!component.ok()) {
      return nok::Status::InvalidArgument("bad Dewey ID: " + text);
    }
    components.push_back(*component);
    start = dot + 1;
  }
  if (components.empty() || components[0] != 0) {
    return nok::Status::InvalidArgument("a Dewey ID starts with 0");
  }
  return nok::DeweyId(std::move(components));
}

nok::Result<std::unique_ptr<nok::DocumentStore>> OpenStore(
    const std::string& dir, bool use_header_skip = true, bool wal = false,
    nok::NavMode nav_mode = nok::NavMode::kPaged) {
  nok::DocumentStore::Options options;
  options.dir = dir;
  options.use_header_skip = use_header_skip;
  options.wal.enabled = wal;
  options.nav_mode = nav_mode;
  return nok::DocumentStore::OpenDir(options);
}

bool ParseNavModeName(const char* name, nok::NavMode* out) {
  const std::string s = name;
  if (s == "paged") *out = nok::NavMode::kPaged;
  else if (s == "bp") *out = nok::NavMode::kBp;
  else return false;
  return true;
}

int CmdBuild(const std::string& xml_path, const std::string& dir,
             bool checksum) {
  std::string xml;
  nok::Status s = nok::ReadFileToString(xml_path, &xml);
  if (!s.ok()) return Fail(s);
  nok::DocumentStore::Options options;
  options.dir = dir;
  options.checksum_pages = checksum;
  nok::Timer timer;
  auto store = nok::DocumentStore::Build(xml, options);
  if (!store.ok()) return Fail(store.status());
  printf("built %s: %llu nodes in %.2fs (tree %llu bytes)\n", dir.c_str(),
         static_cast<unsigned long long>((*store)->stats().node_count),
         timer.ElapsedSeconds(),
         static_cast<unsigned long long>((*store)->stats().tree_bytes));
  return FinishFlush(store->get());
}

/// Parses a --strategy value; an unknown name is a usage error naming
/// the valid ones, never a fallback.
bool ParseStrategyName(const char* name, nok::StartStrategy* out) {
  const std::string s = name;
  if (s == "auto") *out = nok::StartStrategy::kAuto;
  else if (s == "scan") *out = nok::StartStrategy::kScan;
  else if (s == "tag") *out = nok::StartStrategy::kTagIndex;
  else if (s == "value") *out = nok::StartStrategy::kValueIndex;
  else {
    fprintf(stderr,
            "error: unknown strategy '%s' (expected auto|scan|tag|value)\n",
            name);
    return false;
  }
  return true;
}

int CmdExplain(int argc, char** argv) {
  const std::string dir = argv[2];
  const std::string xpath = argv[3];
  nok::QueryOptions options;
  nok::NavMode nav_mode = nok::NavMode::kPaged;
  for (int i = 4; i < argc; ++i) {
    if (strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      if (!ParseStrategyName(argv[++i], &options.strategy)) return Usage();
    } else if (strcmp(argv[i], "--nav-mode") == 0 && i + 1 < argc) {
      if (!ParseNavModeName(argv[++i], &nav_mode)) return Usage();
    } else {
      return Usage();
    }
  }
  auto store = OpenStore(dir, true, false, nav_mode);
  if (!store.ok()) return Fail(store.status());
  nok::QueryEngine engine(store->get());
  auto result = engine.Evaluate(xpath, options);
  if (!result.ok()) return Fail(result.status());
  fputs(engine.ExplainLast().c_str(), stdout);
  return 0;
}

int CmdQuery(int argc, char** argv) {
  const std::string dir = argv[2];
  const std::string xpath = argv[3];
  bool values = false, explain = false;
  bool header_skip = true;
  nok::QueryOptions options;
  nok::NavMode nav_mode = nok::NavMode::kPaged;
  for (int i = 4; i < argc; ++i) {
    if (strcmp(argv[i], "--values") == 0) {
      values = true;
    } else if (strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (strcmp(argv[i], "--no-header-skip") == 0) {
      header_skip = false;
    } else if (strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      if (!ParseStrategyName(argv[++i], &options.strategy)) return Usage();
    } else if (strcmp(argv[i], "--nav-mode") == 0 && i + 1 < argc) {
      if (!ParseNavModeName(argv[++i], &nav_mode)) return Usage();
    } else {
      return Usage();
    }
  }

  auto store = OpenStore(dir, header_skip, false, nav_mode);
  if (!store.ok()) return Fail(store.status());
  nok::QueryEngine engine(store->get());
  nok::Timer timer;
  auto result = engine.Evaluate(xpath, options);
  if (!result.ok()) return Fail(result.status());
  const double seconds = timer.ElapsedSeconds();

  for (const nok::DeweyId& id : *result) {
    if (values) {
      auto value = (*store)->ValueOf(id);
      printf("%s\t%s\n", id.ToString().c_str(),
             value.ok() && value->has_value() ? (*value)->c_str() : "");
    } else {
      printf("%s\n", id.ToString().c_str());
    }
  }
  if (explain) {
    auto pattern = nok::ParseXPath(xpath);
    if (pattern.ok()) {
      fprintf(stderr, "pattern tree:\n%s", pattern->ToString().c_str());
      fprintf(stderr, "partition:\n%s",
              nok::PartitionPattern(*pattern).ToString().c_str());
    }
    fprintf(stderr, "%zu results in %.4fs\n", result->size(), seconds);
    for (size_t t = 0; t < engine.last_stats().trees.size(); ++t) {
      const auto& ts = engine.last_stats().trees[t];
      fprintf(stderr, "  tree %zu: %s, %zu candidates, %zu bindings\n", t,
              nok::StrategyName(ts.strategy), ts.candidates, ts.bindings);
    }
    const auto nav = (*store)->tree()->nav_stats();
    fprintf(stderr,
            "  pages: %llu scanned, %llu skipped by (st,lo,hi), "
            "%llu decode-cache hits\n",
            static_cast<unsigned long long>(nav.pages_scanned),
            static_cast<unsigned long long>(nav.pages_skipped),
            static_cast<unsigned long long>(nav.decode_cache_hits));
    if ((*store)->nav_mode() == nok::NavMode::kBp) {
      fprintf(stderr,
              "  bp: %llu tree steps, %llu tag blocks skipped\n",
              static_cast<unsigned long long>(nav.bp_steps),
              static_cast<unsigned long long>(nav.bp_tag_blocks_skipped));
    }
  }
  return 0;
}

int CmdStream(const std::string& xml_path, const std::string& xpath) {
  std::string xml;
  nok::Status s = nok::ReadFileToString(xml_path, &xml);
  if (!s.ok()) return Fail(s);
  nok::StreamRunStats stats;
  auto result = nok::EvaluateStreaming(xpath, xml, &stats);
  if (!result.ok()) return Fail(result.status());
  for (const nok::DeweyId& id : *result) {
    printf("%s\n", id.ToString().c_str());
  }
  fprintf(stderr, "%zu results; %llu events, peak buffer %zu nodes\n",
          result->size(), static_cast<unsigned long long>(stats.events),
          stats.peak_buffered_nodes);
  return 0;
}

int CmdStats(const std::string& dir) {
  auto store = OpenStore(dir);
  if (!store.ok()) return Fail(store.status());
  const nok::DocumentStoreStats& s = (*store)->stats();
  printf("nodes:        %llu\n", static_cast<unsigned long long>(s.node_count));
  printf("max depth:    %d\n", s.max_depth);
  printf("tags:         %llu\n",
         static_cast<unsigned long long>(s.distinct_tags));
  printf("|tree|:       %llu bytes\n",
         static_cast<unsigned long long>(s.tree_bytes));
  // Entries beside bytes, so index bloat shows as bytes per entry.
  const std::pair<const char*, nok::BTree*> indexes[] = {
      {"|B+v|:", (*store)->value_index()},
      {"|B+i|:", (*store)->id_index()}};
  for (const auto& [label, index] : indexes) {
    printf("%-13s %llu bytes, %llu entries\n", label,
           static_cast<unsigned long long>(index->SizeBytes()),
           static_cast<unsigned long long>(index->num_entries()));
  }
  printf("data file:    %llu bytes\n",
         static_cast<unsigned long long>(s.data_bytes));
  return 0;
}

int CmdInsert(const std::string& dir, const std::string& dewey_text,
              const std::string& index_text,
              const std::string& fragment_path, bool wal) {
  auto store = OpenStore(dir, true, wal);
  if (!store.ok()) return Fail(store.status());
  auto dewey = ParseDewey(dewey_text);
  if (!dewey.ok()) return Fail(dewey.status());
  auto index = ParseIndex(index_text);
  if (!index.ok()) return Fail(index.status());
  std::string fragment;
  nok::Status s = nok::ReadFileToString(fragment_path, &fragment);
  if (!s.ok()) return Fail(s);
  s = (*store)->InsertSubtree(*dewey, *index, fragment);
  if (!s.ok()) return Fail(s);
  printf("inserted under %s\n", dewey->ToString().c_str());
  return FinishFlush(store->get());
}

int CmdDelete(const std::string& dir, const std::string& dewey_text,
              bool wal) {
  auto store = OpenStore(dir, true, wal);
  if (!store.ok()) return Fail(store.status());
  auto dewey = ParseDewey(dewey_text);
  if (!dewey.ok()) return Fail(dewey.status());
  nok::Status s = (*store)->DeleteSubtree(*dewey);
  if (!s.ok()) return Fail(s);
  printf("deleted %s\n", dewey->ToString().c_str());
  return FinishFlush(store->get());
}

int CmdVerify(const std::string& dir) {
  nok::Timer timer;
  auto report = nok::VerifyStoreDir(dir);
  if (!report.ok()) return Fail(report.status());
  for (const nok::VerifyIssue& issue : report->issues) {
    fprintf(stderr, "damage [%s]: %s\n", issue.component.c_str(),
            issue.detail.c_str());
  }
  if (report->truncated) {
    fprintf(stderr, "...issue list truncated\n");
  }
  printf("%s: %llu pages, %llu index entries checked in %.2fs: %s\n",
         dir.c_str(), static_cast<unsigned long long>(report->pages_checked),
         static_cast<unsigned long long>(report->entries_checked),
         timer.ElapsedSeconds(),
         report->ok() ? "clean" : "DAMAGED");
  return report->ok() ? 0 : 1;
}

/// Runs WAL crash recovery on a store directory (replays committed but
/// unapplied transactions, discards torn tails), then scrubs the repaired
/// store with the offline verifier.
int CmdRecover(const std::string& dir) {
  nok::Timer timer;
  nok::RecoveryReport report;
  nok::Status s = nok::RecoverStoreDir(dir, nullptr, &report);
  if (!s.ok()) return Fail(s);
  if (!report.wal_present) {
    printf("%s: no write-ahead log; nothing to recover\n", dir.c_str());
  } else {
    printf("%s: recovered in %.2fs\n", dir.c_str(),
           timer.ElapsedSeconds());
    printf("  committed transactions in log: %llu (last epoch %llu)\n",
           static_cast<unsigned long long>(report.transactions_committed),
           static_cast<unsigned long long>(report.last_epoch));
    printf("  replayed now: %llu transaction(s), %llu record(s)\n",
           static_cast<unsigned long long>(report.transactions_replayed),
           static_cast<unsigned long long>(report.records_replayed));
    printf("  torn tail discarded: %llu byte(s)\n",
           static_cast<unsigned long long>(report.torn_bytes_discarded));
  }
  return CmdVerify(dir);
}

int CmdGen(int argc, char** argv) {
  const std::string name = argv[2];
  const std::string dir = argv[3];
  nok::GenOptions gen_options;
  for (int i = 4; i < argc; ++i) {
    if (strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      gen_options.scale = atof(argv[++i]);
    } else if (strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      gen_options.seed = strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }

  bool found = false;
  nok::Dataset dataset = nok::Dataset::kAuthor;
  for (nok::Dataset d : nok::AllDatasets()) {
    if (nok::DatasetName(d) == name) {
      dataset = d;
      found = true;
    }
  }
  // The deep-recursion dataset sits outside the Table 1 list (so the
  // Table-ordered benches stay stable) but is generatable by name.
  if (!found && name == nok::DatasetName(nok::Dataset::kParts)) {
    dataset = nok::Dataset::kParts;
    found = true;
  }
  if (!found) {
    fprintf(stderr, "unknown dataset: %s\n", name.c_str());
    return Usage();
  }

  nok::Timer timer;
  nok::GeneratedDataset ds = nok::GenerateDataset(dataset, gen_options);
  nok::DocumentStore::Options options;
  options.dir = dir;
  auto store = nok::DocumentStore::Build(ds.xml, options);
  if (!store.ok()) return Fail(store.status());

  // The Table 2 workload (12 categories plus their descendant-axis
  // variants), one query per line, for `nokq bench`.
  std::string listing;
  auto queries = nok::QueriesForDataset(ds);
  auto variants = nok::DescendantVariants(queries, gen_options.seed);
  queries.insert(queries.end(), variants.begin(), variants.end());
  for (const nok::CategoryQuery& q : queries) {
    listing += "# " + q.id + " " + q.category + "\n" + q.xpath + "\n";
  }
  nok::Status s = nok::WriteStringToFile(dir + "/queries.txt",
                                         nok::Slice(listing));
  if (!s.ok()) return Fail(s);
  // The raw document rides along so `bench --engine` can rebuild the
  // in-memory baseline encodings from the exact same bytes.
  s = nok::WriteStringToFile(dir + "/dataset.xml", nok::Slice(ds.xml));
  if (!s.ok()) return Fail(s);

  printf("generated %s (%llu nodes, %zu entries), %zu queries in %.2fs\n",
         ds.name.c_str(),
         static_cast<unsigned long long>((*store)->stats().node_count),
         ds.entries, queries.size(), timer.ElapsedSeconds());
  return FinishFlush(store->get());
}

/// One thread's share of a bench run.
struct BenchThreadResult {
  uint64_t queries = 0;
  uint64_t results = 0;        ///< Sum of result-set sizes (sanity).
  double seconds = 0;
  double mean_latency_us = 0;
  double max_latency_us = 0;
  nok::Status status;          ///< First failure, if any.
};

void BenchWorker(nok::DocumentStore* store,
                 const std::vector<std::string>* xpaths, int repeat,
                 BenchThreadResult* out) {
  nok::QueryEngine engine(store);
  double total_us = 0, max_us = 0;
  nok::Timer thread_timer;
  for (int r = 0; r < repeat; ++r) {
    for (const std::string& xpath : *xpaths) {
      nok::Timer timer;
      auto result = engine.Evaluate(xpath);
      const double us = static_cast<double>(timer.ElapsedMicros());
      if (!result.ok()) {
        out->status = result.status();
        return;
      }
      ++out->queries;
      out->results += result->size();
      total_us += us;
      if (us > max_us) max_us = us;
    }
  }
  out->seconds = thread_timer.ElapsedSeconds();
  out->mean_latency_us =
      out->queries == 0 ? 0 : total_us / static_cast<double>(out->queries);
  out->max_latency_us = max_us;
}

/// One thread's share of a baseline-engine bench run.  Engines are cheap
/// per-thread constructions over the shared read-only encodings (mirrors
/// BenchWorker, which builds one QueryEngine per thread over the store).
void BaselineBenchWorker(const std::string* engine_name,
                         const nok::IntervalDocument* interval,
                         const nok::DomTree* dom,
                         const std::vector<nok::PatternTree>* patterns,
                         int repeat, BenchThreadResult* out) {
  std::unique_ptr<nok::DiEngine> di;
  std::unique_ptr<nok::TwigStackEngine> twig;
  std::unique_ptr<nok::NavigationalEngine> nav;
  std::unique_ptr<nok::RegionEngine> region;
  if (*engine_name == "di") {
    di = std::make_unique<nok::DiEngine>(interval);
  } else if (*engine_name == "twigstack") {
    twig = std::make_unique<nok::TwigStackEngine>(interval);
  } else if (*engine_name == "nav") {
    nav = std::make_unique<nok::NavigationalEngine>(dom);
  } else {
    region = std::make_unique<nok::RegionEngine>(interval);
  }
  auto eval = [&](const nok::PatternTree& pt) -> nok::Result<size_t> {
    if (di) {
      auto r = di->Evaluate(pt);
      if (!r.ok()) return r.status();
      return r->size();
    }
    if (twig) {
      auto r = twig->Evaluate(pt);
      if (!r.ok()) return r.status();
      return r->size();
    }
    if (nav) {
      auto r = nav->Evaluate(pt);
      if (!r.ok()) return r.status();
      return r->size();
    }
    auto r = region->Evaluate(pt);
    if (!r.ok()) return r.status();
    return r->size();
  };

  double total_us = 0, max_us = 0;
  nok::Timer thread_timer;
  for (int r = 0; r < repeat; ++r) {
    for (const nok::PatternTree& pt : *patterns) {
      nok::Timer timer;
      auto result = eval(pt);
      const double us = static_cast<double>(timer.ElapsedMicros());
      if (!result.ok()) {
        out->status = result.status();
        return;
      }
      ++out->queries;
      out->results += *result;
      total_us += us;
      if (us > max_us) max_us = us;
    }
  }
  out->seconds = thread_timer.ElapsedSeconds();
  out->mean_latency_us =
      out->queries == 0 ? 0 : total_us / static_cast<double>(out->queries);
  out->max_latency_us = max_us;
}

void AppendPoolJson(std::string* json, const char* name,
                    const nok::BufferPool::Stats& s) {
  char buf[256];
  const double rate =
      s.fetches == 0
          ? 0
          : static_cast<double>(s.hits) / static_cast<double>(s.fetches);
  snprintf(buf, sizeof(buf),
           "    \"%s\": {\"fetches\": %llu, \"hits\": %llu, "
           "\"misses\": %llu, \"disk_reads\": %llu, \"hit_rate\": %.4f}",
           name, static_cast<unsigned long long>(s.fetches),
           static_cast<unsigned long long>(s.hits),
           static_cast<unsigned long long>(s.misses),
           static_cast<unsigned long long>(s.disk_reads), rate);
  *json += buf;
}

int CmdBench(int argc, char** argv) {
  const std::string dir = argv[2];
  int threads = 1, repeat = 1;
  std::string queries_path = dir + "/queries.txt";
  std::string json_path = "BENCH_concurrency.json";
  std::string engine_name = "nok";
  nok::NavMode nav_mode = nok::NavMode::kPaged;
  for (int i = 3; i < argc; ++i) {
    if (strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      char* end = nullptr;
      threads = static_cast<int>(strtol(argv[++i], &end, 10));
      if (end == nullptr || *end != '\0') return Usage();
    } else if (strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      char* end = nullptr;
      repeat = static_cast<int>(strtol(argv[++i], &end, 10));
      if (end == nullptr || *end != '\0') return Usage();
    } else if (strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries_path = argv[++i];
    } else if (strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine_name = argv[++i];
    } else if (strcmp(argv[i], "--nav-mode") == 0 && i + 1 < argc) {
      if (!ParseNavModeName(argv[++i], &nav_mode)) return Usage();
    } else {
      return Usage();
    }
  }
  if (threads < 1 || repeat < 1) return Usage();
  if (engine_name != "nok" && engine_name != "di" &&
      engine_name != "twigstack" && engine_name != "nav" &&
      engine_name != "region") {
    fprintf(stderr, "unknown engine: %s\n", engine_name.c_str());
    return Usage();
  }

  // The workload: one xpath per line; '#' comments and blanks skipped.
  std::string listing;
  nok::Status s = nok::ReadFileToString(queries_path, &listing);
  if (!s.ok()) return Fail(s);
  std::vector<std::string> xpaths;
  size_t start = 0;
  while (start <= listing.size()) {
    size_t end = listing.find('\n', start);
    if (end == std::string::npos) end = listing.size();
    std::string line = listing.substr(start, end - start);
    if (!line.empty() && line[0] != '#') xpaths.push_back(line);
    start = end + 1;
  }
  if (xpaths.empty()) {
    return Fail(nok::Status::InvalidArgument("no queries in " +
                                             queries_path));
  }

  // Baseline engines rebuild the in-memory encodings from the raw
  // document that `nokq gen` wrote next to the store; the NoK engine
  // reads the paged store itself.
  const bool baseline = engine_name != "nok";
  std::unique_ptr<nok::IntervalDocument> interval;
  std::unique_ptr<nok::DomTree> dom;
  std::vector<nok::PatternTree> patterns;
  if (baseline) {
    std::string xml;
    s = nok::ReadFileToString(dir + "/dataset.xml", &xml);
    if (!s.ok()) {
      fprintf(stderr,
              "bench --engine %s needs %s/dataset.xml "
              "(re-run `nokq gen`)\n",
              engine_name.c_str(), dir.c_str());
      return Fail(s);
    }
    for (const std::string& xpath : xpaths) {
      auto pattern = nok::ParseXPath(xpath);
      if (!pattern.ok()) return Fail(pattern.status());
      patterns.push_back(std::move(pattern).ValueOrDie());
    }
    if (engine_name == "nav") {
      auto tree = nok::DomTree::Parse(xml);
      if (!tree.ok()) return Fail(tree.status());
      dom = std::make_unique<nok::DomTree>(std::move(tree).ValueOrDie());
    } else {
      auto doc = nok::IntervalDocument::Build(xml);
      if (!doc.ok()) return Fail(doc.status());
      interval = std::make_unique<nok::IntervalDocument>(
          std::move(doc).ValueOrDie());
    }
  }

  // One read-only store handle shared by every thread; sharded pools so
  // reader threads do not contend on one LRU mutex.
  nok::DocumentStore::Options options;
  options.dir = dir;
  options.read_only = true;
  options.pool_shards = 16;
  options.index_pool_shards = 8;
  options.nav_mode = nav_mode;
  std::unique_ptr<nok::DocumentStore> store;
  if (!baseline) {
    auto opened = nok::DocumentStore::OpenDir(options);
    if (!opened.ok()) return Fail(opened.status());
    store = std::move(opened).ValueOrDie();
    s = store->DropCaches();
    if (!s.ok()) return Fail(s);
  }

  std::vector<BenchThreadResult> results(
      static_cast<size_t>(threads));
  nok::Timer wall;
  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      if (baseline) {
        workers.emplace_back(BaselineBenchWorker, &engine_name,
                             interval.get(), dom.get(), &patterns, repeat,
                             &results[static_cast<size_t>(t)]);
      } else {
        workers.emplace_back(BenchWorker, store.get(), &xpaths, repeat,
                             &results[static_cast<size_t>(t)]);
      }
    }
    for (std::thread& w : workers) w.join();
  }
  const double wall_seconds = wall.ElapsedSeconds();

  uint64_t total_queries = 0;
  double mean_sum = 0, max_us = 0;
  for (const BenchThreadResult& r : results) {
    if (!r.status.ok()) return Fail(r.status);
    if (r.results != results[0].results) {
      return Fail(nok::Status::Internal(
          "threads disagree on result counts: " +
          std::to_string(r.results) + " vs " +
          std::to_string(results[0].results)));
    }
    total_queries += r.queries;
    mean_sum += r.mean_latency_us;
    if (r.max_latency_us > max_us) max_us = r.max_latency_us;
  }
  const double throughput =
      wall_seconds == 0 ? 0
                        : static_cast<double>(total_queries) / wall_seconds;

  std::string json = "{\n";
  char buf[512];
  snprintf(buf, sizeof(buf),
           "  \"store\": \"%s\",\n  \"engine\": \"%s\",\n"
           "  \"nav_mode\": \"%s\",\n"
           "  \"threads\": %d,\n"
           "  \"repeat\": %d,\n  \"distinct_queries\": %zu,\n"
           "  \"wall_seconds\": %.6f,\n  \"aggregate\": {\n"
           "    \"total_queries\": %llu,\n"
           "    \"throughput_qps\": %.2f,\n"
           "    \"mean_latency_us\": %.2f,\n"
           "    \"max_latency_us\": %.2f\n  },\n",
           dir.c_str(), engine_name.c_str(),
           baseline ? "n/a" : nok::NavModeName(nav_mode), threads, repeat,
           xpaths.size(), wall_seconds,
           static_cast<unsigned long long>(total_queries), throughput,
           mean_sum / static_cast<double>(threads), max_us);
  json += buf;

  // Buffer pools only exist on the paged-store path; baseline engines
  // run fully in memory.
  if (!baseline) {
    json += "  \"buffer_pools\": {\n";
    AppendPoolJson(&json, "tree", store->tree()->buffer_pool()->stats());
    json += ",\n";
    AppendPoolJson(&json, "value_index",
                   store->value_index()->buffer_pool()->stats());
    json += ",\n";
    AppendPoolJson(&json, "id_index",
                   store->id_index()->buffer_pool()->stats());
    json += "\n  },\n";
    const nok::StringStore::NavStats nav = store->tree()->nav_stats();
    snprintf(buf, sizeof(buf),
             "  \"nav\": {\"pages_scanned\": %llu, "
             "\"pages_skipped\": %llu, "
             "\"bp_steps\": %llu, \"bp_tag_blocks_skipped\": %llu},\n",
             static_cast<unsigned long long>(nav.pages_scanned),
             static_cast<unsigned long long>(nav.pages_skipped),
             static_cast<unsigned long long>(nav.bp_steps),
             static_cast<unsigned long long>(nav.bp_tag_blocks_skipped));
    json += buf;
  }
  json += "  \"per_thread\": [\n";
  for (size_t t = 0; t < results.size(); ++t) {
    const BenchThreadResult& r = results[t];
    snprintf(buf, sizeof(buf),
             "    {\"thread\": %zu, \"queries\": %llu, "
             "\"seconds\": %.6f, \"mean_latency_us\": %.2f, "
             "\"max_latency_us\": %.2f}%s\n",
             t, static_cast<unsigned long long>(r.queries), r.seconds,
             r.mean_latency_us, r.max_latency_us,
             t + 1 == results.size() ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";

  s = nok::WriteStringToFile(json_path, nok::Slice(json));
  if (!s.ok()) return Fail(s);
  printf("%llu queries (engine %s) on %d threads in %.3fs: %.1f q/s "
         "(report: %s)\n",
         static_cast<unsigned long long>(total_queries),
         engine_name.c_str(), threads, wall_seconds, throughput,
         json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "build" && (argc == 4 || argc == 5)) {
    const bool checksum = argc == 5 && strcmp(argv[4], "--checksum") == 0;
    if (argc == 5 && !checksum) return Usage();
    return CmdBuild(argv[2], argv[3], checksum);
  }
  if (command == "query" && argc >= 4) return CmdQuery(argc, argv);
  if (command == "explain" && argc >= 4) return CmdExplain(argc, argv);
  if (command == "stream" && argc == 4) return CmdStream(argv[2], argv[3]);
  if (command == "stats" && argc == 3) return CmdStats(argv[2]);
  // Mutating commands accept a trailing --wal (commit through the
  // write-ahead log: crash-atomic, recoverable with `nokq recover`).
  const bool wal =
      argc >= 3 && strcmp(argv[argc - 1], "--wal") == 0;
  const int eff_argc = wal ? argc - 1 : argc;
  if (command == "insert" && eff_argc == 6) {
    return CmdInsert(argv[2], argv[3], argv[4], argv[5], wal);
  }
  if (command == "delete" && eff_argc == 4) {
    return CmdDelete(argv[2], argv[3], wal);
  }
  if (command == "verify" && argc == 3) return CmdVerify(argv[2]);
  if (command == "recover" && argc == 3) return CmdRecover(argv[2]);
  if (command == "gen" && argc >= 4) return CmdGen(argc, argv);
  if (command == "bench" && argc >= 3) return CmdBench(argc, argv);
  return Usage();
}
