// Demonstrates dynamic XR-tree maintenance (§4): elements are inserted and
// deleted one at a time while the index keeps answering FindAncestors
// queries, and the stab-list statistics (§3.3) are reported along the way.
//
//   $ ./index_maintenance

#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "xml/generator.h"
#include "xrtree/xrtree.h"

int main() {
  using namespace xrtree;

  DiskManager disk;
  XR_CHECK_OK(disk.Open("/tmp/xrtree_maintenance.db"));
  BufferPool pool(&disk, 1024);

  // A deeply nested element set (nest chains 24 deep) exercises the stab
  // lists hard: many elements are stabbed by internal keys.
  Document doc = Generator::GenerateNested(/*nesting=*/24, /*chains=*/400,
                                           /*fanout=*/1);
  doc.EncodeRegions(1);
  ElementList elements = doc.ElementsWithTag("nest");
  std::printf("element set: %zu elements, nesting depth 24\n\n",
              elements.size());

  XrTree tree(&pool);

  // Insert everything element by element (Algorithm 1).
  IoStats before = pool.stats();
  for (const Element& e : elements) XR_CHECK_OK(tree.Insert(e));
  IoStats ins = pool.stats() - before;
  std::printf("inserted %llu elements: %.2f physical I/Os per insert\n",
              (unsigned long long)tree.size(),
              static_cast<double>(ins.disk_reads + ins.disk_writes) /
                  elements.size());

  auto stats = tree.ComputeStabStats().value();
  std::printf("stab lists: %llu entries across %llu pages "
              "(%.1f%% of elements are stabbed)\n",
              (unsigned long long)stats.stab_entries,
              (unsigned long long)stats.stab_pages,
              100.0 * stats.stab_entries / elements.size());

  // Run some ancestor queries.
  Random rng(42);
  uint64_t total_ancestors = 0;
  for (int q = 0; q < 1000; ++q) {
    Position sd = elements[rng.Uniform(elements.size())].start + 1;
    total_ancestors += tree.FindAncestors(sd).value().size();
  }
  std::printf("1000 FindAncestors probes returned %.1f ancestors on "
              "average\n",
              total_ancestors / 1000.0);

  // Delete half the elements (Algorithm 2) — redistribution, merges and
  // stab-list displacement all run here.
  before = pool.stats();
  uint64_t deleted = 0;
  for (size_t i = 0; i < elements.size(); i += 2) {
    XR_CHECK_OK(tree.Delete(elements[i].start));
    ++deleted;
  }
  IoStats del = pool.stats() - before;
  std::printf("\ndeleted %llu elements: %.2f physical I/Os per delete\n",
              (unsigned long long)deleted,
              static_cast<double>(del.disk_reads + del.disk_writes) /
                  deleted);

  // The index must still be perfectly consistent (full invariant check:
  // topmost-node rule, smallest-key tagging, (ps,pe) summaries...).
  XR_CHECK_OK(tree.CheckConsistency());
  std::printf("CheckConsistency: OK (%llu elements remain, height %u)\n",
              (unsigned long long)tree.size(), tree.Height().value());

  stats = tree.ComputeStabStats().value();
  std::printf("stab lists after deletion: %llu entries across %llu pages\n",
              (unsigned long long)stats.stab_entries,
              (unsigned long long)stats.stab_pages);

  std::remove("/tmp/xrtree_maintenance.db");
  return 0;
}
