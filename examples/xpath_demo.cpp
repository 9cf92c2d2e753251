// Evaluates path expressions over a generated Department document with the
// PathExecutor: each '//' or '/' step is one structural semi-join of the
// previous step's result with an XR-tree indexed element set — the
// decomposition strategy of §1/§2.2 and the paper's §7 future-work
// direction.
//
//   $ ./xpath_demo [target_elements]

#include <cstdio>
#include <cstdlib>

#include "query/path_executor.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "xml/corpus.h"
#include "xml/dtd.h"
#include "xml/generator.h"

int main(int argc, char** argv) {
  using namespace xrtree;
  uint64_t target = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

  GeneratorOptions options;
  options.target_elements = target;
  auto doc = Generator::Generate(Dtd::Department(), options);
  XR_CHECK_OK(doc.status());
  Corpus corpus;
  corpus.AddDocument(std::move(doc).value());
  std::printf("generated Department document with %llu elements\n\n",
              (unsigned long long)corpus.TotalElements());

  DiskManager disk;
  XR_CHECK_OK(disk.Open("/tmp/xrtree_xpath.db"));
  BufferPool pool(&disk, 4096);
  PathExecutor executor(&pool, &corpus);

  const char* queries[] = {
      "departments//department//employee//name",
      "//employee/employee/employee",
      "//department/name",
      "//employee//email",
      "/departments//email",
  };
  for (const char* q : queries) {
    PathStats stats;
    auto result = executor.Execute(q, &stats);
    XR_CHECK_OK(result.status());
    std::printf("%-44s -> %7zu matches  (%llu joins, %llu elements "
                "scanned)\n",
                q, result->size(), (unsigned long long)stats.joins,
                (unsigned long long)stats.elements_scanned);
  }

  std::remove("/tmp/xrtree_xpath.db");
  return 0;
}
