// xrquery — a small command-line tool over the whole stack: load an XML
// file (or generate a dataset), persist indexed element sets in a database
// file via the catalog, and evaluate path expressions as chains of
// structural semi-joins over the stored XR-trees.
//
//   xrquery load  <db> <file.xml>             parse + index every tag
//   xrquery gen   <db> <department|conference|xmark> <elements>
//   xrquery tags  <db>                        list indexed element sets
//   xrquery query <db> <path-expression>      e.g. "//employee//name"
//   xrquery anc   <db> <tag> <position>       FindAncestors demo
//
// The database persists across invocations: `load`/`gen` once, `query`
// many times.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "join/element_source.h"
#include "query/path_executor.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "xml/corpus.h"
#include "xml/dtd.h"
#include "xml/generator.h"
#include "xml/parser.h"
#include "xrtree/xrtree.h"

namespace {

using namespace xrtree;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xrquery load  <db> <file.xml>\n"
               "  xrquery gen   <db> <department|conference|xmark> <n>\n"
               "  xrquery tags  <db>\n"
               "  xrquery query <db> <path-expression>\n"
               "  xrquery anc   <db> <tag> <position>\n");
  return 1;
}

/// Indexes every tag of `doc` into the database and registers it.
Status IndexDocument(BufferPool* pool, Document doc) {
  Corpus corpus;
  corpus.AddDocument(std::move(doc));
  Catalog catalog(pool);
  XR_RETURN_IF_ERROR(catalog.Load());
  const Document& d = corpus.document(0);
  for (TagId t = 0; t < d.num_tags(); ++t) {
    ElementList elements = corpus.ElementsWithTag(d.TagName(t));
    StoredElementSet set(pool, d.TagName(t));
    XR_RETURN_IF_ERROR(set.Build(elements));
    XR_RETURN_IF_ERROR(set.Register(&catalog));
    std::printf("  indexed %-20s %10zu elements\n", d.TagName(t).c_str(),
                elements.size());
  }
  XR_RETURN_IF_ERROR(catalog.Save());
  return pool->FlushAll();
}

/// Evaluates a path expression against the persisted element sets. A tag
/// the catalog does not hold matches nothing.
Status RunQuery(BufferPool* pool, const std::string& text) {
  Catalog catalog(pool);
  XR_RETURN_IF_ERROR(catalog.Load());
  XR_ASSIGN_OR_RETURN(PathQuery query, PathQuery::Parse(text));
  std::map<std::string, XrTree> trees;
  auto tree_for = [&](const std::string& tag) -> Result<const XrTree*> {
    if (!catalog.Get(tag).ok()) return nullptr;
    auto it = trees.find(tag);
    if (it == trees.end()) {
      XR_ASSIGN_OR_RETURN(XrTree tree,
                          StoredElementSet::OpenXrTree(pool, catalog, tag));
      it = trees.emplace(tag, std::move(tree)).first;
    }
    return &it->second;
  };
  PathStats stats;
  XR_ASSIGN_OR_RETURN(ElementList matches,
                      EvaluatePath(query, tree_for, &stats));
  std::printf("%s -> %zu matches (%llu elements scanned)\n", text.c_str(),
              matches.size(), (unsigned long long)stats.elements_scanned);
  for (size_t i = 0; i < matches.size() && i < 10; ++i) {
    std::printf("  %s\n", matches[i].ToString().c_str());
  }
  if (matches.size() > 10) {
    std::printf("  ... %zu more\n", matches.size() - 10);
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string cmd = argv[1];
  std::string db_path = argv[2];

  DiskManager disk;
  XR_CHECK_OK(disk.Open(db_path));
  BufferPool pool(&disk, 4096);

  if (cmd == "load" && argc == 4) {
    auto doc = XmlParser::ParseFile(argv[3]);
    XR_CHECK_OK(doc.status());
    std::printf("parsed %zu elements from %s\n", doc->size(), argv[3]);
    XR_CHECK_OK(IndexDocument(&pool, std::move(doc).value()));
    return 0;
  }
  if (cmd == "gen" && argc == 5) {
    std::string which = argv[3];
    Dtd dtd = which == "conference"  ? Dtd::Conference()
              : which == "xmark"     ? Dtd::XMark()
                                     : Dtd::Department();
    GeneratorOptions options;
    options.target_elements = std::strtoull(argv[4], nullptr, 10);
    auto doc = Generator::Generate(dtd, options);
    XR_CHECK_OK(doc.status());
    std::printf("generated %zu elements (%s DTD)\n", doc->size(),
                which.c_str());
    XR_CHECK_OK(IndexDocument(&pool, std::move(doc).value()));
    return 0;
  }
  if (cmd == "tags" && argc == 3) {
    Catalog catalog(&pool);
    XR_CHECK_OK(catalog.Load());
    std::printf("%-20s %12s\n", "tag", "elements");
    for (const CatalogEntry& e : catalog.entries()) {
      std::printf("%-20s %12llu\n", e.name.c_str(),
                  (unsigned long long)e.element_count);
    }
    return 0;
  }
  if (cmd == "query" && argc == 4) {
    XR_CHECK_OK(RunQuery(&pool, argv[3]));
    return 0;
  }
  if (cmd == "anc" && argc == 5) {
    Catalog catalog(&pool);
    XR_CHECK_OK(catalog.Load());
    auto tree = StoredElementSet::OpenXrTree(&pool, catalog, argv[3]);
    XR_CHECK_OK(tree.status());
    Position sd = static_cast<Position>(std::strtoul(argv[4], nullptr, 10));
    uint64_t scanned = 0;
    auto anc = tree->FindAncestors(sd, &scanned);
    XR_CHECK_OK(anc.status());
    std::printf("%zu ancestors of position %u in '%s' (%llu elements "
                "scanned):\n",
                anc->size(), sd, argv[3], (unsigned long long)scanned);
    for (const Element& e : *anc) std::printf("  %s\n", e.ToString().c_str());
    return 0;
  }
  return Usage();
}
