// Hot-path correctness: the tag interner, DOM revision tracking, and — the
// load-bearing property — that the fused Fig. 3 walk (emit-time rewrites plus
// cached incremental serialization) is byte-identical to the paper-literal
// clone path for random mutation schedules over corpus pages
// (docs/PERF_MODEL.md).
//
// The property tests run a persistent incremental generator against the
// clone path (incremental off) after every mutation and compare the
// serialized snapshot XML byte for byte, including the spliced pre-escaped
// CDATA path. FusedWalkPropertyTest also holds the two paths to the same
// object-cache side effects and the fused walk to leaving the live page
// untouched. Under the RCB_SANITIZE (ASan) build the same schedules double
// as a dangling-span detector for the cache's copied spans.
#include <gtest/gtest.h>

#include <tuple>

#include "src/browser/resources.h"
#include "src/core/content_generator.h"
#include "src/html/intern.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"
#include "src/util/escape.h"
#include "src/util/rand.h"

namespace rcb {
namespace {

// ---------------------------------------------------------------------------
// Tag interner
// ---------------------------------------------------------------------------

TEST(InternTest, RepeatedNamesShareOnePointer) {
  StringInterner interner;
  const std::string* a = interner.Intern("div");
  const std::string* b = interner.Intern("div");
  const std::string* c = interner.Intern("span");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternTest, CapStopsGrowthWithoutInvalidating) {
  StringInterner interner;
  interner.set_max_entries(2);
  const std::string* a = interner.Intern("one");
  const std::string* b = interner.Intern("two");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(interner.Intern("three"), nullptr);  // full: caller owns the copy
  EXPECT_EQ(interner.Intern("one"), a);          // existing entries still hit
  EXPECT_EQ(*a, "one");
  EXPECT_EQ(*b, "two");
}

TEST(InternTest, ElementsShareCanonicalTagStorage) {
  auto upper = MakeElement("DIV");
  auto lower = MakeElement("div");
  EXPECT_EQ(upper->tag_name(), "div");
  // Both canonical names resolve to the same interned string object.
  EXPECT_EQ(&upper->tag_name(), &lower->tag_name());
}

// ---------------------------------------------------------------------------
// DOM revision tracking
// ---------------------------------------------------------------------------

TEST(DomRevTest, MutationRestampsNodeAndAncestorsDistinctly) {
  auto root = MakeElement("div");
  auto middle = MakeElement("p");
  auto leaf = MakeElement("span");
  Element* leaf_ptr = leaf.get();
  Element* middle_ptr = middle.get();
  middle->AppendChild(std::move(leaf));
  root->AppendChild(std::move(middle));
  auto sibling = MakeElement("em");
  Element* sibling_ptr = sibling.get();
  root->AppendChild(std::move(sibling));

  uint64_t root_before = root->rev();
  uint64_t sibling_before = sibling_ptr->rev();
  leaf_ptr->SetAttribute("class", "hot");
  EXPECT_GT(leaf_ptr->rev(), root_before);
  EXPECT_GT(middle_ptr->rev(), root_before);
  EXPECT_GT(root->rev(), root_before);
  // Fresh and distinct per node: a rev uniquely identifies (node, state).
  EXPECT_NE(leaf_ptr->rev(), middle_ptr->rev());
  EXPECT_NE(middle_ptr->rev(), root->rev());
  // Untouched siblings keep their rev — that is the incremental win.
  EXPECT_EQ(sibling_ptr->rev(), sibling_before);
}

TEST(DomRevTest, UnchangedAttributeWriteDoesNotTouch) {
  auto element = MakeElement("div");
  element->SetAttribute("id", "x");
  uint64_t before = element->rev();
  element->SetAttribute("id", "x");  // same value: no restamp
  EXPECT_EQ(element->rev(), before);
  element->SetAttribute("id", "y");
  EXPECT_GT(element->rev(), before);
}

TEST(DomRevTest, KeepRevWritesDoNotRestamp) {
  auto element = MakeElement("a");
  element->SetAttribute("href", "/x");
  uint64_t before = element->rev();
  element->SetAttributeKeepRev("href", "http://origin.test/x");
  EXPECT_EQ(element->rev(), before);
  EXPECT_EQ(element->GetAttribute("href").value_or(""), "http://origin.test/x");
}

TEST(DomRevTest, ClonePreservesRevsRecursively) {
  auto root = MakeElement("div");
  auto child = MakeElement("p");
  child->AppendChild(MakeText("hello"));
  root->AppendChild(std::move(child));
  std::unique_ptr<Node> copy = root->Clone();
  EXPECT_EQ(copy->rev(), root->rev());
  ASSERT_EQ(copy->child_count(), root->child_count());
  EXPECT_EQ(copy->child_at(0)->rev(), root->child_at(0)->rev());
  EXPECT_EQ(copy->child_at(0)->child_at(0)->rev(),
            root->child_at(0)->child_at(0)->rev());
}

// ---------------------------------------------------------------------------
// Incremental-vs-cold byte identity (the correctness gate)
// ---------------------------------------------------------------------------

// One deterministic mutation drawn from `rng`. The mix deliberately includes
// the hazards the cache must survive: inserting an interactive element early
// in the body shifts every later data-rcb-id (id_base validation), removals
// restructure the tree, and text/attribute edits dirty deep subtrees. The
// emit-time rewrites add their own: URL attributes of every kind the
// absolutize pass treats differently, elements that already carry the event
// attributes or a data-rcb-id (rewritten in place, not appended), head-child
// edits, and references to objects under `origin` + "/rcb-mut/" (the schedule
// later Puts some of them into the object cache).
void ApplyRandomMutation(Document* document, Rng* rng, int step,
                         const std::string& origin) {
  Element* body = document->body();
  ASSERT_NE(body, nullptr);
  std::vector<Element*> elements;
  std::function<void(Element*)> collect = [&](Element* element) {
    elements.push_back(element);
    for (const auto& child : element->children()) {
      if (Element* child_element = child->AsElement()) {
        collect(child_element);
      }
    }
  };
  collect(body);
  Element* target = elements[rng->NextBelow(elements.size())];
  const std::string pool = std::to_string(rng->NextBelow(4));
  switch (rng->NextBelow(10)) {
    case 0:  // text edit inside an element
      target->AppendChild(MakeText("step " + std::to_string(step)));
      break;
    case 1:  // attribute write
      target->SetAttribute("data-step", std::to_string(step));
      break;
    case 2: {  // interactive element at the front: shifts all later ids
      auto link = MakeElement("a");
      link->SetAttribute("href", "/mut" + std::to_string(step));
      link->AppendChild(MakeText("m" + std::to_string(step)));
      body->InsertBefore(std::move(link),
                         body->child_count() > 0 ? body->child_at(0) : nullptr);
      break;
    }
    case 3:  // removal (keep the body itself)
      if (target != body && target->parent() != nullptr) {
        target->parent()->RemoveChild(target);
      }
      break;
    case 4:  // attribute removal
      target->RemoveAttribute("data-step");
      break;
    case 5: {  // plain subtree insertion
      auto div = MakeElement("div");
      div->SetAttribute("class", "mut");
      div->AppendChild(MakeText("item " + std::to_string(step)));
      target->AppendChild(std::move(div));
      break;
    }
    case 6: {  // URL-attribute edit: each value kind absolutize treats apart
      static const char* const kKinds[] = {"relative", "absolute",
                                           "javascript", "data", "fragment"};
      const std::string kind = kKinds[rng->NextBelow(5)];
      std::string value = "/rcb-mut/" + pool + ".png";
      if (kind == "absolute") {
        value = origin + value;
      } else if (kind == "javascript") {
        value = "javascript:void(" + pool + ")";
      } else if (kind == "data") {
        value = "data:image/gif;base64,R0lGOD" + pool;
      } else if (kind == "fragment") {
        value = "#section" + pool;
      }
      std::string attr;
      if (target != body && UrlAttributeFor(*target, &attr)) {
        target->SetAttribute(attr, value);
      } else {
        auto element = MakeElement(rng->NextBelow(2) == 0 ? "img" : "a");
        element->SetAttribute(element->tag_name() == "img" ? "src" : "href",
                              value);
        target->AppendChild(std::move(element));
      }
      break;
    }
    case 7: {  // elements that already carry the attributes step 4 writes
      std::unique_ptr<Element> element;
      switch (rng->NextBelow(4)) {
        case 0:
          element = MakeElement("a");
          element->SetAttribute("onclick", "legacy()");
          element->SetAttribute("href", "/rcb-mut/" + pool + ".html");
          element->SetAttribute("data-rcb-id", "99");
          break;
        case 1:
          element = MakeElement("form");
          element->SetAttribute("onsubmit", "return check()");
          element->SetAttribute("action", "/submit");
          break;
        case 2:
          element = MakeElement("input");
          element->SetAttribute("data-rcb-id", "x");
          element->SetAttribute("name", "q" + pool);
          element->SetAttribute("onchange", "old()");
          break;
        default:
          element = MakeElement("button");
          element->SetAttribute("onclick", "press()");
          break;
      }
      target->InsertBefore(std::move(element), target->first_child());
      break;
    }
    case 8: {  // head-child edits
      Element* head = document->head();
      ASSERT_NE(head, nullptr);
      std::vector<Element*> head_children = head->ChildElements();
      switch (rng->NextBelow(4)) {
        case 0: {
          auto link = MakeElement("link");
          link->SetAttribute("rel", "stylesheet");
          link->SetAttribute("href", "/rcb-mut/" + pool + ".css");
          head->AppendChild(std::move(link));
          break;
        }
        case 1: {
          auto script = MakeElement("script");
          script->SetAttribute("src", "/rcb-mut/" + pool + ".js");
          head->AppendChild(std::move(script));
          break;
        }
        case 2:
          if (!head_children.empty()) {
            head_children[rng->NextBelow(head_children.size())]->SetAttribute(
                "data-step", std::to_string(step));
          }
          break;
        default:
          if (head_children.size() > 1) {
            head->RemoveChild(
                head_children[rng->NextBelow(head_children.size())]);
          }
          break;
      }
      break;
    }
    default: {  // a supplementary object the schedule may cache later
      auto image = MakeElement("img");
      image->SetAttribute("src", "/rcb-mut/" + pool + ".png");
      target->AppendChild(std::move(image));
      break;
    }
  }
}

class SerializeCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeCachePropertyTest, IncrementalMatchesColdFullSerialization) {
  const uint64_t seed = GetParam();
  const std::vector<SiteSpec>& sites = Table1Sites();
  const SiteSpec& spec = sites[seed % sites.size()];

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost(spec.host, {});
  auto server = InstallSite(&loop, &network, spec);
  Browser browser(&loop, &network, "host-pc");
  bool done = false;
  Status status;
  browser.Navigate(Url::Make("http", spec.host, 80, "/"),
                   [&](const Status& s, const PageLoadStats&) {
                     status = s;
                     done = true;
                   });
  ASSERT_TRUE(loop.RunUntilCondition([&] { return done; }));
  ASSERT_TRUE(status.ok()) << status;

  ContentGenOptions options;
  options.cache_mode = (seed % 2) == 0;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");

  GeneratorTuning incremental_tuning;  // defaults: incremental on
  ContentGenerator incremental(&browser, incremental_tuning);
  GeneratorTuning cold_tuning;
  cold_tuning.incremental_serialize = false;

  Rng rng(seed * 0x9E3779B9u + 1);
  // First pass serializes the whole page (all misses); each later pass
  // reuses every subtree the mutation left clean.
  std::string previous_first;
  for (int step = 0; step < 10; ++step) {
    if (step > 0) {
      browser.MutateDocument([&](Document* document) {
        ApplyRandomMutation(document, &rng, step, "http://" + spec.host);
      });
    }
    GenerationResult warm = incremental.Generate(1000 + step, options);
    // A brand-new generator with incremental off is the cold reference: no
    // cache, the paper-literal clone path.
    ContentGenerator cold(&browser, cold_tuning);
    GenerationResult reference = cold.Generate(1000 + step, options);

    const std::string warm_xml = SerializeSnapshotXml(warm.snapshot);
    const std::string cold_xml = SerializeSnapshotXml(reference.snapshot);
    ASSERT_EQ(warm_xml, cold_xml)
        << spec.name << " diverged at step " << step << " (seed " << seed
        << ")";
    // The spliced pre-escaped path must produce the same bytes as a fresh
    // escape of the same snapshot.
    ASSERT_TRUE(warm.escaped.Matches(warm.snapshot));
    SnapshotSerializeStats spliced_stats, fresh_stats;
    const std::string spliced = SerializeSnapshotXml(
        warm.snapshot, &spliced_stats, &warm.escaped, nullptr);
    ASSERT_EQ(spliced, SerializeSnapshotXml(warm.snapshot, &fresh_stats));
    EXPECT_EQ(spliced_stats.payload_raw_bytes, fresh_stats.payload_raw_bytes);
    EXPECT_EQ(spliced_stats.payload_escaped_bytes,
              fresh_stats.payload_escaped_bytes);
    EXPECT_EQ(reference.interactive_elements, warm.interactive_elements);
  }
  // The schedules leave most of the page untouched, so the cache must have
  // done real splicing work — this is the perf half of the contract.
  const SerializeCache::Stats& stats = incremental.serialize_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.hit_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeCachePropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Fused walk vs the paper-literal clone path: bytes and side effects
// ---------------------------------------------------------------------------

// Every node's rev under `node`, in pre-order.
void CollectRevs(const Node& node, std::vector<uint64_t>* revs) {
  revs->push_back(node.rev());
  for (const auto& child : node.children()) {
    CollectRevs(*child, revs);
  }
}

// Two browsers load the same page and take the same mutation schedule; one
// generates through the fused walk, the other through the paper-literal
// clone path. Each browser's object cache sees only its own generator's
// lookups, so equal hit/miss deltas and equal LRU orders after every
// generation show that the fused walk (lookup replay on cache hits included)
// has exactly the clone path's side effects. Halfway through, objects the
// schedule references are Put into both object caches, so later generations
// rewrite them to /obj/ URLs and the cached spans must re-key. Parameters:
// seed, and whether a cache_object_filter keeps some objects at the origin.
class FusedWalkPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(FusedWalkPropertyTest, MatchesPaperLiteralBytesAndObjectCacheEffects) {
  const auto [seed, use_filter] = GetParam();
  const std::vector<SiteSpec>& sites = Table1Sites();
  const SiteSpec& spec = sites[(seed * 7) % sites.size()];
  const std::string origin = "http://" + spec.host;

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-a", {});
  network.AddHost("host-b", {});
  network.AddHost(spec.host, {});
  auto server = InstallSite(&loop, &network, spec);
  Browser fused_browser(&loop, &network, "host-a");
  Browser literal_browser(&loop, &network, "host-b");
  for (Browser* browser : {&fused_browser, &literal_browser}) {
    bool done = false;
    Status status;
    browser->Navigate(Url::Make("http", spec.host, 80, "/"),
                      [&](const Status& s, const PageLoadStats&) {
                        status = s;
                        done = true;
                      });
    ASSERT_TRUE(loop.RunUntilCondition([&] { return done; }));
    ASSERT_TRUE(status.ok()) << status;
  }
  ObjectCache& fused_cache = fused_browser.cache();
  ObjectCache& literal_cache = literal_browser.cache();
  ASSERT_EQ(fused_cache.lru_order(), literal_cache.lru_order());

  ContentGenOptions options;
  options.cache_mode = true;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");
  if (use_filter) {
    // Pure and fixed for the run: scripts and one pooled image stay at the
    // origin and are never looked up.
    options.cache_object_filter = [](const Url& url, const std::string& kind) {
      return kind != "script" && url.path() != "/rcb-mut/1.png";
    };
  }
  ContentGenerator fused(&fused_browser);
  GeneratorTuning literal_tuning;
  literal_tuning.incremental_serialize = false;
  ContentGenerator literal(&literal_browser, literal_tuning);

  Rng fused_rng(seed * 0x9E3779B9u + 7);
  Rng literal_rng(seed * 0x9E3779B9u + 7);
  constexpr int kSteps = 16;
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0) {
      fused_browser.MutateDocument([&](Document* document) {
        ApplyRandomMutation(document, &fused_rng, step, origin);
      });
      literal_browser.MutateDocument([&](Document* document) {
        ApplyRandomMutation(document, &literal_rng, step, origin);
      });
    }
    if (step == kSteps / 2) {
      for (ObjectCache* cache : {&fused_cache, &literal_cache}) {
        for (const char* path :
             {"/rcb-mut/0.png", "/rcb-mut/1.png", "/rcb-mut/2.css"}) {
          auto url = Url::Parse(origin + path);
          ASSERT_TRUE(url.ok());
          cache->Put(*url, "application/octet-stream", "OBJECT");
        }
      }
    }
    const Document& live = *fused_browser.document();
    const std::string live_bytes = SerializeNode(live);
    std::vector<uint64_t> live_revs;
    CollectRevs(live, &live_revs);

    const uint64_t fused_hits = fused_cache.hits();
    const uint64_t fused_misses = fused_cache.misses();
    GenerationResult fast = fused.Generate(1000 + step, options);
    const uint64_t literal_hits = literal_cache.hits();
    const uint64_t literal_misses = literal_cache.misses();
    GenerationResult reference = literal.Generate(1000 + step, options);

    ASSERT_EQ(SerializeSnapshotXml(fast.snapshot),
              SerializeSnapshotXml(reference.snapshot))
        << spec.name << " diverged at step " << step << " (seed " << seed
        << ", filter " << use_filter << ")";
    ASSERT_EQ(SerializeSnapshotXml(fast.snapshot, nullptr, &fast.escaped,
                                   nullptr),
              SerializeSnapshotXml(fast.snapshot));
    EXPECT_EQ(fused_cache.hits() - fused_hits,
              literal_cache.hits() - literal_hits)
        << "step " << step;
    EXPECT_EQ(fused_cache.misses() - fused_misses,
              literal_cache.misses() - literal_misses)
        << "step " << step;
    EXPECT_EQ(fused_cache.lru_order(), literal_cache.lru_order())
        << "step " << step;
    EXPECT_EQ(fast.interactive_elements, reference.interactive_elements);
    EXPECT_EQ(fast.urls_absolutized, reference.urls_absolutized);
    EXPECT_EQ(fast.urls_cache_rewritten, reference.urls_cache_rewritten);
    // The walk is read-only: the live page keeps every byte and every rev.
    EXPECT_EQ(SerializeNode(live), live_bytes) << "step " << step;
    std::vector<uint64_t> revs_after;
    CollectRevs(live, &revs_after);
    EXPECT_EQ(revs_after, live_revs) << "step " << step;
  }
  // The schedule must have exercised what it claims to: spliced spans, and
  // object-cache hits that rewrote URLs to the agent.
  EXPECT_GT(fused.serialize_cache_stats().hits, 0u);
  EXPECT_GT(fused_cache.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFilter, FusedWalkPropertyTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 9), ::testing::Bool()));

// ---------------------------------------------------------------------------
// Targeted cache-identity hazards
// ---------------------------------------------------------------------------

class SerializeCacheTest : public ::testing::Test {
 protected:
  SerializeCacheTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("www.origin.test", {});
    server_ =
        std::make_unique<SiteServer>(&loop_, &network_, "www.origin.test");
    browser_ = std::make_unique<Browser>(&loop_, &network_, "host-pc");
  }

  void Load(const std::string& html,
            const std::map<std::string, std::string>& objects = {}) {
    server_->ServeStatic("/", "text/html", html);
    for (const auto& [path, body] : objects) {
      server_->ServeStatic(path, "application/octet-stream", body);
    }
    bool done = false;
    Status status;
    browser_->Navigate(Url::Make("http", "www.origin.test", 80, "/"),
                       [&](const Status& s, const PageLoadStats&) {
                         status = s;
                         done = true;
                       });
    ASSERT_TRUE(loop_.RunUntilCondition([&] { return done; }));
    ASSERT_TRUE(status.ok()) << status;
  }

  ContentGenOptions Options(bool cache_mode) {
    ContentGenOptions options;
    options.cache_mode = cache_mode;
    options.agent_url = Url::Make("http", "host-pc", 3000, "/");
    return options;
  }

  // Cold reference bytes for the browser's current document.
  std::string ColdXml(int64_t doc_time_ms, const ContentGenOptions& options) {
    GeneratorTuning tuning;
    tuning.incremental_serialize = false;
    ContentGenerator cold(browser_.get(), tuning);
    return SerializeSnapshotXml(cold.Generate(doc_time_ms, options).snapshot);
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> server_;
  std::unique_ptr<Browser> browser_;
};

TEST_F(SerializeCacheTest, UnchangedRegenerationHitsTheCache) {
  Load("<html><head><title>T</title></head><body>"
       "<div id=\"a\"><p>alpha content long enough to clear the minimum "
       "cacheable span size threshold</p></div>"
       "<div id=\"b\"><p>beta content long enough to clear the minimum "
       "cacheable span size threshold</p></div>"
       "</body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  GenerationResult first = generator.Generate(1000, options);
  uint64_t misses_after_first = generator.serialize_cache_stats().misses;
  GenerationResult second = generator.Generate(2000, options);
  EXPECT_EQ(first.snapshot.body->inner_html, second.snapshot.body->inner_html);
  // The second pass re-serialized nothing below the payload roots.
  EXPECT_GT(generator.serialize_cache_stats().hits, 0u);
  EXPECT_EQ(generator.serialize_cache_stats().misses, misses_after_first);
}

TEST_F(SerializeCacheTest, InsertedInteractiveElementShiftsTrailingIds) {
  // Two forms after the insertion point: their data-rcb-id values must shift
  // when a new anchor lands before them, even though their subtrees are
  // byte-identical otherwise — the id_base check forces the re-serialization.
  Load("<html><body><div id=\"top\">x</div>"
       "<form id=\"f1\"><input name=\"q\"></form>"
       "<form id=\"f2\"><input name=\"r\"></form></body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  GenerationResult before = generator.Generate(1000, options);
  EXPECT_NE(before.snapshot.body->inner_html.find("data-rcb-id=\"0\""),
            std::string::npos);

  browser_->MutateDocument([](Document* document) {
    auto link = MakeElement("a");
    link->SetAttribute("href", "/first");
    link->AppendChild(MakeText("now first"));
    document->body()->InsertBefore(std::move(link),
                                   document->body()->child_at(0));
  });
  GenerationResult after = generator.Generate(2000, options);
  EXPECT_EQ(SerializeSnapshotXml(after.snapshot), ColdXml(2000, options));
  EXPECT_EQ(after.interactive_elements, before.interactive_elements + 1);
}

TEST_F(SerializeCacheTest, ObjectCacheChangeInvalidatesCacheModeBytes) {
  // Cache-mode output depends on which URLs the ObjectCache can serve; its
  // change_epoch is folded into the config fingerprint, so clearing the
  // cache must change the generated bytes back to origin URLs.
  Load("<html><body><img src=\"/img/a.png\"><p>text</p></body></html>",
       {{"/img/a.png", "PIXELS"}});
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/true);
  GenerationResult cached = generator.Generate(1000, options);
  EXPECT_NE(cached.snapshot.body->inner_html.find("/obj/"), std::string::npos);

  browser_->cache().Clear();
  GenerationResult cleared = generator.Generate(2000, options);
  EXPECT_EQ(cleared.snapshot.body->inner_html.find("/obj/"),
            std::string::npos);
  EXPECT_EQ(SerializeSnapshotXml(cleared.snapshot), ColdXml(2000, options));
}

TEST_F(SerializeCacheTest, ModeSwitchKeepsBothFingerprintsCorrect) {
  Load("<html><body><img src=\"/img/a.png\"><div>stable</div></body></html>",
       {{"/img/a.png", "PIXELS"}});
  ContentGenerator generator(browser_.get());
  ContentGenOptions cache_on = Options(/*cache_mode=*/true);
  ContentGenOptions cache_off = Options(/*cache_mode=*/false);
  // Alternating modes on one generator: entries for both fingerprints
  // coexist and neither serves the other's bytes.
  for (int round = 0; round < 3; ++round) {
    GenerationResult on = generator.Generate(1000 + round, cache_on);
    EXPECT_EQ(SerializeSnapshotXml(on.snapshot), ColdXml(1000 + round, cache_on));
    GenerationResult off = generator.Generate(1000 + round, cache_off);
    EXPECT_EQ(SerializeSnapshotXml(off.snapshot),
              ColdXml(1000 + round, cache_off));
  }
}

TEST_F(SerializeCacheTest, BudgetIsEnforcedByEviction) {
  Load("<html><body>"
       "<div><p>block one with enough bytes to be cacheable as a span</p></div>"
       "<div><p>block two with enough bytes to be cacheable as a span</p></div>"
       "<div><p>block three with enough bytes to be cacheable as a span</p>"
       "</div></body></html>");
  GeneratorTuning tuning;
  tuning.serialize_cache_budget = 256;  // tiny: forces eviction churn
  ContentGenerator generator(browser_.get(), tuning);
  ContentGenOptions options = Options(/*cache_mode=*/false);
  for (int step = 0; step < 4; ++step) {
    browser_->MutateDocument([&](Document* document) {
      document->body()->SetAttribute("data-step", std::to_string(step));
    });
    GenerationResult result = generator.Generate(1000 + step, options);
    EXPECT_EQ(SerializeSnapshotXml(result.snapshot),
              ColdXml(1000 + step, options));
    EXPECT_LE(generator.serialize_cache_stats().bytes,
              generator.tuning().serialize_cache_budget);
  }
  EXPECT_GT(generator.serialize_cache_stats().evictions, 0u);
}

TEST_F(SerializeCacheTest, TinySpansAreNotCached) {
  // Every subtree below serializes under min_span_bytes: tracking them would
  // cost more than re-serializing, so the cache must stay empty while the
  // output stays correct.
  Load("<html><body><b>a</b><i>b</i><u>c</u></body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  GenerationResult result = generator.Generate(1000, options);
  EXPECT_EQ(SerializeSnapshotXml(result.snapshot), ColdXml(1000, options));
  EXPECT_EQ(generator.serialize_cache_stats().spans, 0u);
}

}  // namespace
}  // namespace rcb
