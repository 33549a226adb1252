// Reproduces Table 1 of the paper: per-dataset statistics of the source
// document and of the physical stores (|tree|, |B+v|, |col|).  The
// paper's |B+t| column is replaced by the bytes of the in-memory per-tag
// rank lists and child indexes that serve tag probes (BpIndex; "tagsel"),
// and its |B+i| column by the bytes of the value column that stands in
// for B+i (value_column.h; "|col|").
// Also checks the Section 4.2 claim that the tree string is 1/20 - 1/100
// of the document size.
//
// Usage: bench_table1 [--scale 0.1] [--seed 42]
// scale 1.0 approximates the paper's document sizes (minutes of build
// time); the default keeps the whole bench suite fast.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/dataset_gen.h"
#include "encoding/document_store.h"

namespace nok {
namespace {

int Run(int argc, char** argv) {
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.1);
  gen.seed = static_cast<uint64_t>(bench::FlagInt(argc, argv, "seed", 42));

  printf("Table 1 reproduction (scale %.3f; paper = scale 1.0)\n\n",
         gen.scale);
  printf("%-9s %10s %9s %6s %4s %5s %10s %10s %10s %10s %7s\n",
         "data set", "size", "#nodes", "avg.d", "max", "tags", "|tree|",
         "tagsel", "|B+v|", "|col|", "xml/tree");

  for (Dataset dataset : AllDatasets()) {
    GeneratedDataset ds = GenerateDataset(dataset, gen);
    auto store = DocumentStore::Build(ds.xml, DocumentStore::Options());
    if (!store.ok()) {
      fprintf(stderr, "build %s failed: %s\n", ds.name.c_str(),
              store.status().ToString().c_str());
      return 1;
    }
    const DocumentStoreStats& s = (*store)->stats();
    auto bp = (*store)->bp_index();
    if (!bp.ok()) {
      fprintf(stderr, "bp index %s failed: %s\n", ds.name.c_str(),
              bp.status().ToString().c_str());
      return 1;
    }
    printf("%-9s %10s %9llu %6.1f %4d %5llu %10s %10s %10s %10s %6.0fx\n",
           ds.name.c_str(), bench::Mb(s.xml_bytes).c_str(),
           static_cast<unsigned long long>(s.node_count), s.avg_depth,
           s.max_depth, static_cast<unsigned long long>(s.distinct_tags),
           bench::Mb(s.tree_bytes).c_str(),
           bench::Mb((*bp)->TagSelectBytes()).c_str(),
           bench::Mb(s.value_index_bytes).c_str(),
           bench::Mb(s.column_bytes).c_str(),
           static_cast<double>(s.xml_bytes) /
               static_cast<double>(s.tree_bytes));
  }
  printf(
      "\npaper reference (scale 1.0):\n"
      "  author    1.2MB  15,006 nodes  depth 3/3   8 tags   |tree| .035MB\n"
      "  address    17MB  403,201       depth 3/3   7 tags   |tree| 0.5MB\n"
      "  catalog    30MB  620,604       depth 5/8  51 tags   |tree| 1.2MB\n"
      "  treebank   82MB  2,437,666     depth 8/36 250 tags  |tree| 5.3MB\n"
      "  dblp      133MB  3,332,130     depth 3/6  35 tags   |tree| 8MB\n"
      "expected shape: |tree| is 1/20-1/100 of the document; each B+ tree\n"
      "is of the same order as the document.\n");
  return 0;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
