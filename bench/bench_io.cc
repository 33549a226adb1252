// I/O behaviour of the physical storage (Section 5):
//   * the (st,lo,hi) header-skip optimization: page fetches during
//     FOLLOWING-SIBLING walks with the optimization on vs off
//     (Example 5's "only two page reads");
//   * Proposition 1: a full NoK-style traversal reads every page at most
//     once given n/C buffer frames.
//
// Usage: bench_io [--scale 0.1]

#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"

namespace nok {
namespace {

struct IoNumbers {
  uint64_t pool_reads = 0;
  uint64_t pages_scanned = 0;
  uint64_t pages_skipped = 0;
  double seconds = 0;
};

Result<IoNumbers> SiblingWalkWorkload(DocumentStore* store) {
  // Walk the sibling chain at level 2 (the paper's Example 5 pattern:
  // each FOLLOWING-SIBLING must hop over a whole entry subtree).
  NOK_RETURN_IF_ERROR(store->DropCaches());
  Timer timer;
  StringStore* tree = store->tree();
  StringStore::Navigator nav(tree);
  NOK_ASSIGN_OR_RETURN(auto child, nav.FirstChild(tree->RootPos()));
  size_t walked = 0;
  std::optional<StorePos> pos = child;
  while (pos.has_value()) {
    ++walked;
    NOK_ASSIGN_OR_RETURN(auto sibling, nav.FollowingSibling(*pos));
    pos = sibling;
  }
  IoNumbers out;
  out.seconds = timer.ElapsedSeconds();
  out.pool_reads = tree->buffer_pool()->stats().disk_reads;
  out.pages_scanned = tree->nav_stats().pages_scanned;
  out.pages_skipped = tree->nav_stats().pages_skipped;
  (void)walked;
  return out;
}

int Run(int argc, char** argv) {
  setbuf(stdout, nullptr);  // Progress is visible even when piped.
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.1);
  // The sibling walk hops over <category> subtrees (~750 nodes each, a
  // few pages): exactly Example 5's "skip the cousin pages" situation.
  GeneratedDataset ds = GenerateDataset(Dataset::kCatalog, gen);

  printf("I/O behaviour (catalog-like document, scale %.3f)\n\n",
         gen.scale);

  for (bool skip : {true, false}) {
    DocumentStore::Options options;
    options.page_size = 1024;  // Categories span several pages.
    options.use_header_skip = skip;
    auto store = DocumentStore::Build(ds.xml, options);
    if (!store.ok()) {
      fprintf(stderr, "build failed: %s\n",
              store.status().ToString().c_str());
      return 1;
    }
    auto io = SiblingWalkWorkload(store->get());
    if (!io.ok()) {
      fprintf(stderr, "workload failed: %s\n",
              io.status().ToString().c_str());
      return 1;
    }
    printf("header skip %-3s: disk reads %8llu  pages scanned %8llu  "
           "skipped %8llu  (%.4fs; %zu chain pages)\n",
           skip ? "ON" : "OFF",
           static_cast<unsigned long long>(io->pool_reads),
           static_cast<unsigned long long>(io->pages_scanned),
           static_cast<unsigned long long>(io->pages_skipped),
           io->seconds, (*store)->tree()->chain_length());
  }

  // Proposition 1: full evaluation of a path query is single-pass.
  {
    DocumentStore::Options options;
    options.page_size = 1024;
    options.pool_frames = 4096;  // Enough frames for the n/C bound.
    auto store = DocumentStore::Build(ds.xml, options);
    if (!store.ok()) return 1;
    QueryEngine engine(store->get());
    if (!(*store)->DropCaches().ok()) return 1;
    QueryOptions qo;
    qo.strategy = StartStrategy::kScan;  // Whole-document pass.
    auto r = engine.Evaluate(ds.entry_path + "/" + ds.detail_a, qo);
    if (!r.ok()) {
      fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    const uint64_t reads =
        (*store)->tree()->buffer_pool()->stats().disk_reads;
    const size_t pages = (*store)->tree()->chain_length();
    printf("\nProposition 1 check: scan-strategy query read %llu pages of "
           "%zu in the chain (single-pass iff reads <= pages): %s\n",
           static_cast<unsigned long long>(reads), pages,
           reads <= pages ? "HOLDS" : "VIOLATED");
  }
  return 0;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
