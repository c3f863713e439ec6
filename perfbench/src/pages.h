// Seeded page inputs and the small document edits the workloads apply.
#ifndef PERFBENCH_SRC_PAGES_H_
#define PERFBENCH_SRC_PAGES_H_

#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/browser/object_cache.h"
#include "src/html/dom.h"
#include "src/http/url.h"
#include "src/sites/corpus.h"

namespace perfbench {

// One page a session hosts: its HTML, the URL it was loaded from, and the
// supplementary objects a host browser would hold in its cache.
struct PageInput {
  std::string html;
  rcb::Url url;
  std::vector<rcb::GeneratedObject> objects;
};

// A ~1 KB seeded page: headline, status line, link list and a search form.
PageInput SmallPage(SeededRng& rng, size_t index);
// The Table 1 homepage of `spec` (GenerateHomepage is deterministic).
PageInput Table1Page(const rcb::SiteSpec& spec);
// Puts the page's objects into `cache` under their absolute URLs, so the
// cache-mode rewrite of Fig. 3 has work to do.
void CacheObjects(const PageInput& page, rcb::ObjectCache* cache);

// Element the text edits target; inserted by PrepareDocument.
inline constexpr const char* kStatusId = "rcb-bench-status";
// Adds the status element the text edits rewrite.
void PrepareDocument(rcb::Document* document);
// Text edit: rewrites the status element's text.
void TextEdit(rcb::Document* document, const std::string& text);
// Host-side co-fill: writes the first input's value attribute (or a body
// data attribute on pages without one), as MeasureSmallUpdates does.
void FillEdit(rcb::Document* document, const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PAGES_H_
