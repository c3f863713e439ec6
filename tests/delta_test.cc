// Delta-snapshot subsystem tests: patch codec round trips, keyed tree diff,
// the apply(diff(A,B), A) == B property over the Table 1 corpus with random
// DOM mutations, op-for-op equality with the reference (pre-index) diff, the
// Fig. 3 walk's delta index against the materialized one, the
// integrity-checked applier's freshness/digest gates, and end-to-end sessions
// where patches replace full snapshots on the wire.
#include <gtest/gtest.h>

#include "src/core/broadcast.h"
#include "src/core/content_generator.h"
#include "src/core/session.h"
#include "src/delta/patch_applier.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/net/profiles.h"
#include "src/sites/corpus.h"
#include "src/util/rand.h"
#include "tests/reference_tree_diff.h"

namespace rcb {
namespace delta {

// Readable gtest failure output for op lists: the wire encoding of one op.
void PrintTo(const PatchOp& op, std::ostream* os) {
  *os << EncodePatchOps({op});
}

}  // namespace delta
namespace {

std::unique_ptr<Element> CanonicalFromHtml(std::string_view html) {
  std::unique_ptr<Document> document = ParseDocument(html);
  std::unique_ptr<Element> canonical = delta::CanonicalizeDocument(*document);
  EXPECT_NE(canonical, nullptr);
  return canonical;
}

delta::Patch MakePatch(const Element& base, const Element& target,
                       int64_t base_time, int64_t target_time) {
  delta::Patch patch;
  patch.base_doc_time_ms = base_time;
  patch.target_doc_time_ms = target_time;
  patch.base_digest = delta::TreeDigest(base);
  patch.target_digest = delta::TreeDigest(target);
  patch.ops = delta::DiffTrees(base, target);
  return patch;
}

// ---- Patch codec ---------------------------------------------------------

TEST(PatchCodecTest, OpsRoundTripAllTypes) {
  std::vector<delta::PatchOp> ops;
  delta::PatchOp op;
  op.type = delta::PatchOpType::kInsert;
  op.path = {1, 0};
  op.index = 2;
  op.html = "<p class=\"x&y\">a=b&amp;c\nnewline</p>";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kRemove;
  op.path = {1};
  op.index = 5;
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kMove;
  op.path = {};
  op.from = 3;
  op.to = 1;
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kReplace;
  op.path = {0, 2};
  op.html = "<span>r</span>";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kSetAttr;
  op.path = {1, 4};
  op.name = "data-rcb-id";
  op.value = "value with = & and % signs";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kRemoveAttr;
  op.path = {1, 4};
  op.name = "onclick";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kSetText;
  op.path = {1, 0, 0};
  op.value = "new text\nwith newline";
  ops.push_back(op);

  auto decoded = delta::DecodePatchOps(delta::EncodePatchOps(ops));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, ops);
}

TEST(PatchCodecTest, PatchXmlRoundTripsWithUserActions) {
  delta::PatchEnvelope envelope;
  envelope.patch.base_doc_time_ms = 1111;
  envelope.patch.target_doc_time_ms = 2222;
  envelope.patch.base_digest = std::string(64, 'a');
  envelope.patch.target_digest = std::string(64, 'b');
  delta::PatchOp op;
  op.type = delta::PatchOpType::kSetText;
  op.path = {1, 0};
  op.value = "hello ]]> world";
  envelope.patch.ops.push_back(op);
  UserAction action;
  action.type = ActionType::kFormFill;
  action.target = 3;
  action.fields = {{"q", "macbook air"}};
  action.origin = "p2";
  envelope.user_actions.push_back(action);

  std::string xml = delta::SerializePatchXml(envelope);
  EXPECT_TRUE(delta::LooksLikePatchXml(xml));
  auto parsed = delta::ParsePatchXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, envelope);
}

TEST(PatchCodecTest, SnapshotXmlIsNotMistakenForPatch) {
  Snapshot snapshot;
  snapshot.doc_time_ms = 7;
  snapshot.has_content = true;
  snapshot.body.emplace();
  snapshot.body->tag = "body";
  snapshot.body->inner_html = "<p>x</p>";
  EXPECT_FALSE(delta::LooksLikePatchXml(SerializeSnapshotXml(snapshot)));
}

TEST(PatchCodecTest, DecodeRejectsMalformedOps) {
  // Unknown op name.
  EXPECT_FALSE(delta::DecodePatchOps("op=explode&path=0").ok());
  // Move with from < to (diff never emits forward moves).
  EXPECT_FALSE(delta::DecodePatchOps("op=move&from=1&to=2").ok());
  // Insert without a payload.
  EXPECT_FALSE(delta::DecodePatchOps("op=insert&path=0&index=0").ok());
  // Attribute name outside the allowed charset.
  EXPECT_FALSE(
      delta::DecodePatchOps("op=setattr&path=0&name=a%20b&value=x").ok());
  // Out-of-range index.
  EXPECT_FALSE(delta::DecodePatchOps("op=remove&path=0&index=99999999").ok());
  // Path deeper than the cap.
  std::string deep = "op=remove&index=0&path=0";
  for (int i = 0; i < 600; ++i) {
    deep += ".0";
  }
  EXPECT_FALSE(delta::DecodePatchOps(deep).ok());
}

TEST(PatchCodecTest, ParseRejectsBadHeaders) {
  delta::PatchEnvelope envelope;
  envelope.patch.base_doc_time_ms = 1;
  envelope.patch.target_doc_time_ms = 2;
  envelope.patch.base_digest = std::string(64, 'c');
  envelope.patch.target_digest = std::string(64, 'd');
  std::string good = delta::SerializePatchXml(envelope);

  // Wrong version.
  std::string bad = good;
  bad.replace(bad.find("<version>1</version>"), 20, "<version>9</version>");
  EXPECT_FALSE(delta::ParsePatchXml(bad).ok());
  // Truncated digest.
  bad = good;
  bad.replace(bad.find(std::string(64, 'c')), 64, "c0ffee");
  EXPECT_FALSE(delta::ParsePatchXml(bad).ok());
  // Not XML at all.
  EXPECT_FALSE(delta::ParsePatchXml("op=insert").ok());
}

// ---- Tree diff -----------------------------------------------------------

TEST(TreeDiffTest, IdenticalTreesDiffEmpty) {
  auto a = CanonicalFromHtml(
      "<html><head><title>t</title></head><body><p>x</p></body></html>");
  auto b = a->Clone();
  EXPECT_TRUE(delta::DiffTrees(*a, *b->AsElement()).empty());
}

TEST(TreeDiffTest, CoFillIsASingleSetAttrOp) {
  // The Fig. 3 event-rewriting pass tags interactive elements with
  // data-rcb-id; a co-filled field must diff to one set-attr, not churn.
  auto base = CanonicalFromHtml(
      "<html><body><form data-rcb-id=\"0\">"
      "<input data-rcb-id=\"1\" name=\"q\" value=\"\">"
      "</form></body></html>");
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  target->FindFirst("input")->SetAttribute("value", "macbook air");

  std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kSetAttr);
  EXPECT_EQ(ops[0].name, "value");
  EXPECT_EQ(ops[0].value, "macbook air");
}

TEST(TreeDiffTest, TextEditIsASingleSetTextOp) {
  auto base = CanonicalFromHtml("<html><body><p>before</p></body></html>");
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  Element* p = target->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("after"));

  std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kSetText);
  EXPECT_EQ(ops[0].value, "after");
}

// Handcrafted structural edits: the patched base must serialize identically
// to the target, and the op stream must survive the wire codec.
void ExpectDiffApplyRoundTrip(const Element& base, const Element& target) {
  std::vector<delta::PatchOp> ops = delta::DiffTrees(base, target);
  auto decoded = delta::DecodePatchOps(delta::EncodePatchOps(ops));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, ops);

  std::unique_ptr<Node> patched_owned = base.Clone();
  Element* patched = patched_owned->AsElement();
  Status status = delta::ApplyPatchOps(patched, ops);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(SerializeNode(*patched), SerializeNode(target));
  EXPECT_EQ(delta::TreeDigest(*patched), delta::TreeDigest(target));
}

TEST(TreeDiffTest, StructuralEditsRoundTrip) {
  auto base = CanonicalFromHtml(
      "<html><head><title>t</title></head>"
      "<body><p id=\"a\">one</p><p id=\"b\">two</p><div><span>deep</span>"
      "</div></body></html>");

  {  // Insertion at the front and the back.
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    body->InsertBefore(MakeElement("h1"), body->first_child());
    body->AppendChild(MakeElement("footer"));
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Removal.
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    body->RemoveChild(body->child_at(1));
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Reorder (keyed move).
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    std::unique_ptr<Node> last = body->RemoveChild(body->last_child());
    body->InsertBefore(std::move(last), body->first_child());
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Tag change forces a replace.
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    auto article = MakeElement("article");
    article->AppendChild(MakeText("one"));
    body->RemoveChild(body->first_child());
    body->InsertBefore(std::move(article), body->first_child());
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Nested edit under an unchanged parent chain.
    auto t = base->Clone();
    Element* span = t->AsElement()->FindFirst("span");
    span->SetAttribute("class", "hot");
    span->RemoveAllChildren();
    span->AppendChild(MakeText("deeper"));
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Attribute removal.
    auto t = base->Clone();
    t->AsElement()->FindFirst("p")->RemoveAttribute("id");
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
}

TEST(TreeDiffTest, AttributeReorderStillConverges) {
  // SetAttribute keeps the position of existing names, so a reordered
  // attribute list cannot be reached by set/remove-attr ops; the differ must
  // fall back to replacing the element — and still converge.
  auto base = CanonicalFromHtml(
      "<html><body><input data-rcb-id=\"0\" name=\"q\" value=\"x\">"
      "</body></html>");
  auto target = CanonicalFromHtml(
      "<html><body><input value=\"x\" name=\"q\" data-rcb-id=\"0\">"
      "</body></html>");
  ExpectDiffApplyRoundTrip(*base, *target);
}

// ---- Randomized corpus property: apply(diff(A, B), A) == B ---------------

void CollectTexts(Node* node, std::vector<Text*>* out) {
  for (const auto& child : node->children()) {
    if (child->type() == NodeType::kText) {
      out->push_back(static_cast<Text*>(child.get()));
    }
    CollectTexts(child.get(), out);
  }
}

void MutateTreeOnce(Rng* rng, Element* root) {
  std::vector<Element*> elements{root};
  root->ForEachElement([&](Element* element) {
    elements.push_back(element);
    return true;
  });
  Element* victim = elements[rng->NextBelow(elements.size())];
  switch (rng->NextBelow(6)) {
    case 0:  // set or add an attribute
      if (victim != root) {
        victim->SetAttribute("data-m" + std::to_string(rng->NextBelow(3)),
                             "v" + std::to_string(rng->NextBelow(100)));
      }
      break;
    case 1:  // remove an attribute (possibly the identity key)
      if (victim != root && !victim->attributes().empty()) {
        victim->RemoveAttribute(
            victim->attributes()[rng->NextBelow(victim->attributes().size())]
                .first);
      }
      break;
    case 2: {  // edit a text node
      std::vector<Text*> texts;
      CollectTexts(root, &texts);
      if (!texts.empty()) {
        texts[rng->NextBelow(texts.size())]->set_data(
            "edited " + std::to_string(rng->NextBelow(1000)));
      }
      break;
    }
    case 3: {  // insert a small subtree at a random position
      auto span = MakeElement("span");
      span->SetAttribute("class", "m" + std::to_string(rng->NextBelow(10)));
      span->AppendChild(MakeText("ins" + std::to_string(rng->NextBelow(100))));
      size_t slot = rng->NextBelow(victim->child_count() + 1);
      victim->InsertBefore(std::move(span), slot == victim->child_count()
                                                ? nullptr
                                                : victim->child_at(slot));
      break;
    }
    case 4:  // remove a random child
      if (victim->child_count() > 0) {
        victim->RemoveChild(
            victim->child_at(rng->NextBelow(victim->child_count())));
      }
      break;
    case 5:  // move a child to another slot
      if (victim->child_count() >= 2) {
        size_t from = rng->NextBelow(victim->child_count());
        std::unique_ptr<Node> moved = victim->RemoveChild(victim->child_at(from));
        size_t slot = rng->NextBelow(victim->child_count() + 1);
        victim->InsertBefore(std::move(moved), slot == victim->child_count()
                                                   ? nullptr
                                                   : victim->child_at(slot));
      }
      break;
  }
}

class CorpusDiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorpusDiffPropertyTest, RandomMutationsRoundTripOverTable1) {
  Rng rng(GetParam());
  for (const SiteSpec& spec : Table1Sites()) {
    GeneratedSite site = GenerateHomepage(spec);
    std::unique_ptr<Document> document = ParseDocument(site.html);
    std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
    ASSERT_NE(base, nullptr) << spec.name;

    std::unique_ptr<Node> target_owned = base->Clone();
    Element* target = target_owned->AsElement();
    for (int i = 0; i < 8; ++i) {
      MutateTreeOnce(&rng, target);
    }
    delta::NormalizeTextNodes(target);

    std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
    auto decoded = delta::DecodePatchOps(delta::EncodePatchOps(ops));
    ASSERT_TRUE(decoded.ok()) << spec.name << ": " << decoded.status();
    ASSERT_EQ(*decoded, ops) << spec.name;

    std::unique_ptr<Node> patched_owned = base->Clone();
    Element* patched = patched_owned->AsElement();
    Status status = delta::ApplyPatchOps(patched, ops);
    ASSERT_TRUE(status.ok()) << spec.name << ": " << status;
    ASSERT_EQ(SerializeNode(*patched), SerializeNode(*target)) << spec.name;
    ASSERT_EQ(delta::TreeDigest(*patched), delta::TreeDigest(*target))
        << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusDiffPropertyTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---- Indexed diff == reference diff ---------------------------------------

// The indexed diff must return exactly the reference diff's ops. The
// two-tree form indexes both trees and runs the indexed form.
void ExpectSameOpsAsReference(const Element& base, const Element& target) {
  ASSERT_EQ(delta::DiffTrees(base, target),
            delta::reference::ReferenceDiffTrees(base, target));
}

TEST(IndexedDiffTest, ChangedLeafAmongIdenticalSiblingsIsOneOp) {
  // Forty identical list items: every unchanged one is skipped by its
  // byte-equal span, and the changed one still yields its set-text op.
  std::string html = "<html><body><ul>";
  for (int i = 0; i < 40; ++i) {
    html += "<li class=\"row\"><b>item</b></li>";
  }
  html += "</ul></body></html>";
  auto base = CanonicalFromHtml(html);
  auto target_owned = base->Clone();
  Element* ul = target_owned->AsElement()->FindFirst("ul");
  Node* item = ul->child_at(17);
  static_cast<Text*>(item->first_child()->first_child())->set_data("changed");

  ExpectSameOpsAsReference(*base, *target_owned->AsElement());
  // The indexed form, as SnapshotBroadcast calls it with stored indexes.
  delta::TreeIndex base_index, target_index;
  delta::IndexTree(*base, &base_index);
  delta::IndexTree(*target_owned->AsElement(), &target_index);
  std::vector<delta::PatchOp> ops =
      delta::DiffTrees(base_index, target_index);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kSetText);
  EXPECT_EQ(ops[0].path, (std::vector<uint32_t>{1, 0, 17, 0, 0}));
  EXPECT_EQ(ops[0].value, "changed");
}

TEST(IndexedDiffTest, KeyedMoveAfterSharedPrefix) {
  // a b c d e -> a b e c d: the shared prefix a b is paired up front and the
  // LCS runs over the remainder only; e moves back to position 2.
  std::string base_html = "<html><body>";
  std::string target_html = "<html><body>";
  for (char id : std::string("abcde")) {
    base_html += std::string("<p data-rcb-id=\"") + id + "\">" + id + "</p>";
  }
  for (char id : std::string("abecd")) {
    target_html +=
        std::string("<p data-rcb-id=\"") + id + "\">" + id + "</p>";
  }
  auto base = CanonicalFromHtml(base_html + "</body></html>");
  auto target = CanonicalFromHtml(target_html + "</body></html>");

  ExpectSameOpsAsReference(*base, *target);
  std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kMove);
  EXPECT_EQ(ops[0].path, (std::vector<uint32_t>{1}));
  EXPECT_EQ(ops[0].from, 4u);
  EXPECT_EQ(ops[0].to, 2u);
}

TEST(IndexedDiffTest, ChildrenOfVoidElementsAreStillDiffed) {
  // A void element's children are never serialized, so its bytes cannot
  // show that they changed; the diff must not skip it on equal bytes.
  auto base = CanonicalFromHtml("<html><body><img src=\"x\"></body></html>");
  Element* img = base->FindFirst("img");
  img->AppendChild(MakeText("one"));
  auto target_owned = base->Clone();
  static_cast<Text*>(target_owned->AsElement()->FindFirst("img")->first_child())
      ->set_data("two");
  ASSERT_EQ(SerializeNode(*base), SerializeNode(*target_owned));

  ExpectSameOpsAsReference(*base, *target_owned->AsElement());
  EXPECT_EQ(delta::DiffTrees(*base, *target_owned->AsElement()).size(), 1u);
}

TEST(IndexedDiffTest, DigestFromIndexEqualsTreeDigest) {
  for (const SiteSpec& spec : Table1Sites()) {
    std::unique_ptr<Document> document =
        ParseDocument(GenerateHomepage(spec).html);
    std::unique_ptr<Element> canonical = delta::CanonicalizeDocument(*document);
    delta::TreeIndex index;
    delta::IndexTree(*canonical, &index);
    EXPECT_EQ(index.bytes, SerializeNode(*canonical)) << spec.name;
    EXPECT_EQ(delta::TreeDigest(index), delta::TreeDigest(*canonical))
        << spec.name;
    ASSERT_FALSE(index.spans.empty());
    EXPECT_EQ(index.spans[0].begin, 0u);
    EXPECT_EQ(index.spans[0].end, index.bytes.size());
    EXPECT_EQ(index.spans[0].next, index.spans.size());
  }
}

// Every Table 1 homepage through 20 chained rounds of 1-8 random mutations:
// each round's target becomes the next round's base, so bases carry earlier
// mutations too (including children under void elements).
class ReferenceDiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceDiffPropertyTest, OpsEqualReferenceOverTable1) {
  Rng rng(GetParam());
  for (const SiteSpec& spec : Table1Sites()) {
    std::unique_ptr<Document> document =
        ParseDocument(GenerateHomepage(spec).html);
    std::unique_ptr<Node> base = delta::CanonicalizeDocument(*document);
    ASSERT_NE(base, nullptr) << spec.name;
    for (int round = 0; round < 20; ++round) {
      std::unique_ptr<Node> target = base->Clone();
      const uint64_t mutations = 1 + rng.NextBelow(8);
      for (uint64_t i = 0; i < mutations; ++i) {
        MutateTreeOnce(&rng, target->AsElement());
      }
      delta::NormalizeTextNodes(target->AsElement());
      ExpectSameOpsAsReference(*base->AsElement(), *target->AsElement());
      ASSERT_FALSE(HasFatalFailure())
          << spec.name << " seed " << GetParam() << " round " << round;
      base = std::move(target);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceDiffPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---- Walk-built delta index == materialized index -------------------------

// Wraps a construct whose serialization does not parse back to itself, so a
// repair step can remove every one of them again.
constexpr char kBadClass[] = "rt-bad";

std::unique_ptr<Element> BadWrapper() {
  auto wrapper = MakeElement("span");
  wrapper->SetAttribute("class", kBadClass);
  return wrapper;
}

void InsertAt(Rng* rng, Element* parent, std::unique_ptr<Node> node) {
  const size_t slot = rng->NextBelow(parent->child_count() + 1);
  parent->InsertBefore(std::move(node), slot == parent->child_count()
                                            ? nullptr
                                            : parent->child_at(slot));
}

// One host-side document change: serialize_cache_test-style edits (text,
// attributes, interactive elements before cached spans, removals, URL
// attributes the absolutize and cache-mode rewrites treat apart, head
// edits), constructs the walk must refuse to vouch for (a DOM-built p>div,
// script text holding "</script", comment data with "--" or a trailing '-',
// children under a void payload root), constructs it must index right
// (children under a void element in the body, adjacent and empty text
// beside large cached text), and a repair that removes the refused ones.
void MutateHostDocument(Document* document, Rng* rng, int step,
                        const std::string& origin) {
  Element* body = document->body();
  std::vector<Element*> elements;
  body->ForEachElement([&](Element* element) {
    elements.push_back(element);
    return true;
  });
  Element* target = elements.empty() ? body
                                      : elements[rng->NextBelow(elements.size())];
  const std::string tag = std::to_string(step);
  switch (rng->NextBelow(14)) {
    case 0:  // text appended next to whatever text is there
      target->AppendChild(MakeText("step " + tag));
      break;
    case 1:
      target->SetAttribute("data-step", tag);
      break;
    case 2: {  // interactive element ahead of every cached span
      auto link = MakeElement("a");
      link->SetAttribute("href", "/mut" + tag);
      link->AppendChild(MakeText("m" + tag));
      body->InsertBefore(std::move(link), body->first_child());
      break;
    }
    case 3:
      if (target != body) {
        target->Detach();
      }
      break;
    case 4: {
      auto div = MakeElement("div");
      div->SetAttribute("class", "mut");
      div->AppendChild(MakeText("item " + tag));
      InsertAt(rng, body, std::move(div));
      break;
    }
    case 5: {  // URL attributes: relative, absolute, javascript:, data:, #
      static const char* const kValues[] = {
          "/static/img0.png", "/rcb-mut/x.png", "javascript:void(0)",
          "data:image/gif;base64,R0lGOD", "#top"};
      std::string value = kValues[rng->NextBelow(5)];
      if (rng->NextBelow(2) == 0 && value[0] == '/') {
        value = origin + value;
      }
      auto image = MakeElement(rng->NextBelow(2) == 0 ? "img" : "a");
      image->SetAttribute(image->tag_name() == "img" ? "src" : "href", value);
      InsertAt(rng, target, std::move(image));
      break;
    }
    case 6: {  // p>div: the parse closes the <p> before the <div>
      auto wrapper = BadWrapper();
      auto p = MakeElement("p");
      auto div = MakeElement("div");
      div->AppendChild(MakeText("block in paragraph " + tag));
      p->AppendChild(std::move(div));
      wrapper->AppendChild(std::move(p));
      InsertAt(rng, target, std::move(wrapper));
      break;
    }
    case 7: {  // children under a void element: neither side shows them
      auto image = MakeElement("img");
      image->SetAttribute("src", "/static/img1.png");
      image->AppendChild(MakeText("hidden " + tag));
      auto inner = MakeElement("b");
      inner->AppendChild(MakeText("hidden element"));
      image->AppendChild(std::move(inner));
      InsertAt(rng, target, std::move(image));
      break;
    }
    case 8: {  // raw text that ends its element early
      auto wrapper = BadWrapper();
      auto script = MakeElement("script");
      script->AppendChild(MakeText("var s = '</script><b>" + tag + "</b>';"));
      wrapper->AppendChild(std::move(script));
      InsertAt(rng, target, std::move(wrapper));
      break;
    }
    case 9: {  // comment data the comment syntax cannot carry
      auto wrapper = BadWrapper();
      wrapper->AppendChild(std::make_unique<Comment>(
          rng->NextBelow(2) == 0 ? "a -- b " + tag : "trailing " + tag + "-"));
      InsertAt(rng, target, std::move(wrapper));
      break;
    }
    case 10: {  // adjacent and empty text beside large (cached) text
      std::vector<Text*> texts;
      CollectTexts(body, &texts);
      std::vector<Text*> large;
      for (Text* text : texts) {
        if (text->data().size() >= 64) {
          large.push_back(text);
        }
      }
      if (large.empty()) {
        break;
      }
      Text* anchor = large[rng->NextBelow(large.size())];
      Node* parent = anchor->parent();
      parent->InsertBefore(MakeText(rng->NextBelow(2) == 0 ? "" : "pre " + tag),
                           anchor);
      size_t index = 0;
      while (parent->child_at(index) != anchor) {
        ++index;
      }
      Node* after = index + 1 < parent->child_count()
                        ? parent->child_at(index + 1)
                        : nullptr;
      parent->InsertBefore(MakeText(""), after);
      parent->InsertBefore(MakeText(" post " + tag), after);
      break;
    }
    case 11: {  // head edits, one of them a child under a void payload root
      Element* head = document->head();
      std::vector<Element*> head_children = head->ChildElements();
      switch (rng->NextBelow(3)) {
        case 0: {
          auto link = MakeElement("link");
          link->SetAttribute("rel", "stylesheet");
          link->SetAttribute("href", "/rcb-mut/" + tag + ".css");
          if (rng->NextBelow(2) == 0) {
            link->SetAttribute("class", kBadClass);
            link->AppendChild(MakeText("inside a void payload root"));
          }
          head->AppendChild(std::move(link));
          break;
        }
        case 1:
          if (!head_children.empty()) {
            head_children[rng->NextBelow(head_children.size())]->SetAttribute(
                "data-step", tag);
          }
          break;
        default: {
          auto script = MakeElement("script");
          script->AppendChild(MakeText("var v" + tag + " = " + tag + ";"));
          head->AppendChild(std::move(script));
          break;
        }
      }
      break;
    }
    default: {  // repair: drop every refused construct again
      while (true) {
        Element* bad = nullptr;
        document->document_element()->ForEachElement([&](Element* element) {
          if (element->AttrOr("class") == kBadClass) {
            bad = element;
            return false;
          }
          return true;
        });
        if (bad == nullptr) {
          break;
        }
        bad->Detach();
      }
      break;
    }
  }
}

class WalkIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Every Table 1 homepage through 16 generations of host edits, in cache mode
// (odd seeds) and out of it. The generator's fused walk must index each
// version it vouches for exactly as IndexTree indexes the materialized tree
// (bytes, spans, digest); SnapshotBroadcast must hold that index for every
// version, through the materialized fallback when the walk refuses; and the
// diff of the broadcast's indexes must equal the reference tree diff for
// consecutive versions and for versions 8 apart.
TEST_P(WalkIndexPropertyTest, WalkIndexEqualsMaterializedIndex) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 0x9E3779B9u + 7);
  size_t vouched = 0;
  size_t refused = 0;
  for (const SiteSpec& spec : Table1Sites()) {
    EventLoop loop;
    Network network(&loop);
    Browser browser(&loop, &network, "host-pc");
    GeneratedSite site = GenerateHomepage(spec);
    const std::string origin = "http://" + spec.host;
    browser.ReplaceDocument(ParseDocument(site.html),
                            Url::Make("http", spec.host, 80, "/"));
    for (size_t i = 0; i < site.objects.size(); i += 2) {
      browser.cache().Put(Url::Make("http", spec.host, 80, site.objects[i].path),
                          site.objects[i].content_type, site.objects[i].body);
    }
    ContentGenOptions options;
    options.cache_mode = seed % 2 == 1;
    options.agent_url = Url::Make("http", "host-pc", 3000, "/");
    ContentGenerator walk(&browser);
    ContentGenerator broadcast_generator(&browser);
    BroadcastOptions broadcast_options;
    broadcast_options.enable_delta = true;
    SnapshotBroadcast broadcast(&broadcast_generator, &loop,
                                broadcast_options, {});

    std::vector<std::unique_ptr<Element>> trees;
    std::vector<delta::TreeIndex> indexes;
    for (int generation = 0; generation < 16; ++generation) {
      if (generation > 0) {
        browser.MutateDocument([&](Document* document) {
          MutateHostDocument(document, &rng, generation, origin);
        });
      }
      const int64_t doc_time = 1000 + generation;
      const std::string where = spec.name + " seed " + std::to_string(seed) +
                                " generation " + std::to_string(generation);
      delta::TreeIndex walk_index;
      GenerationResult result = walk.Generate(doc_time, options, &walk_index);
      std::unique_ptr<Element> tree = MaterializeSnapshotTree(result.snapshot);
      delta::TreeIndex reference;
      delta::IndexTree(*tree, &reference);
      if (result.indexed) {
        ++vouched;
        ASSERT_EQ(walk_index.bytes, reference.bytes) << where;
        ASSERT_EQ(walk_index.canonical_size, reference.canonical_size)
            << where;
        ASSERT_EQ(walk_index.spans, reference.spans) << where;
        ASSERT_EQ(delta::TreeDigest(walk_index), delta::TreeDigest(*tree))
            << where;
      } else {
        ++refused;
      }
      // The unmutated homepages parse back to themselves.
      if (generation == 0) {
        ASSERT_TRUE(result.indexed) << where;
      }

      SnapshotBroadcast::Slot& slot = broadcast.Refresh(
          options.cache_mode, false, doc_time, options.agent_url, {});
      ASSERT_EQ(slot.snapshot.body->inner_html, result.snapshot.body->inner_html)
          << where;
      ASSERT_EQ(slot.current.index, reference) << where;
      ASSERT_EQ(slot.current.digest, delta::TreeDigest(*tree)) << where;
      broadcast.Invalidate();

      trees.push_back(std::move(tree));
      indexes.push_back(slot.current.index);
      for (int back : {1, 8}) {
        if (generation < back) {
          continue;
        }
        const size_t base = static_cast<size_t>(generation - back);
        ASSERT_EQ(delta::DiffTrees(indexes[base], indexes.back()),
                  delta::reference::ReferenceDiffTrees(*trees[base],
                                                       *trees.back()))
            << where << " against " << back << " back";
      }
    }
  }
  // Both paths ran: versions the walk indexed and versions it refused.
  EXPECT_GT(vouched, 0u);
  EXPECT_GT(refused, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkIndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---- Integrity-checked applier -------------------------------------------

constexpr std::string_view kApplierPage =
    "<html><head><title>A</title></head>"
    "<body><p id=\"p\">v1</p><div id=\"d\">stable</div></body></html>";

TEST(PatchApplierTest, FreshnessAndIntegrityGates) {
  std::unique_ptr<Document> document = ParseDocument(kApplierPage);
  std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  Element* p = target->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("v2"));

  // Stale target (not newer than current): ignored, no resync.
  delta::Patch stale = MakePatch(*base, *target, 500, 1000);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, stale),
            delta::ApplyResult::kStaleIgnored);
  EXPECT_FALSE(delta::NeedsResync(delta::ApplyResult::kStaleIgnored));

  // Base version mismatch: out-of-order patch must never apply.
  delta::Patch wrong_base = MakePatch(*base, *target, 900, 2000);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, wrong_base),
            delta::ApplyResult::kBaseTimeMismatch);
  EXPECT_TRUE(delta::NeedsResync(delta::ApplyResult::kBaseTimeMismatch));

  // Base digest mismatch: the live document drifted from what the patch
  // expects.
  delta::Patch bad_base_digest = MakePatch(*base, *target, 1000, 2000);
  bad_base_digest.base_digest = std::string(64, '0');
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, bad_base_digest),
            delta::ApplyResult::kBaseDigestMismatch);

  // Target digest mismatch: ops applied cleanly but the result is not what
  // the agent promised — never commit.
  delta::Patch bad_target_digest = MakePatch(*base, *target, 1000, 2000);
  bad_target_digest.target_digest = std::string(64, '0');
  EXPECT_EQ(
      delta::ApplyPatchToDocument(document.get(), 1000, bad_target_digest),
      delta::ApplyResult::kTargetDigestMismatch);

  // Structurally invalid op list.
  delta::Patch broken = MakePatch(*base, *target, 1000, 2000);
  delta::PatchOp bogus;
  bogus.type = delta::PatchOpType::kRemove;
  bogus.path = {99};
  broken.ops.push_back(bogus);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, broken),
            delta::ApplyResult::kApplyError);

  // None of the rejected patches touched the live document.
  EXPECT_EQ(document->ById("p")->TextContent(), "v1");

  // The genuine patch commits and the live document digests to the target.
  delta::Patch good = MakePatch(*base, *target, 1000, 2000);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, good),
            delta::ApplyResult::kApplied);
  EXPECT_EQ(document->ById("p")->TextContent(), "v2");
  std::unique_ptr<Element> live = delta::CanonicalizeDocument(*document);
  EXPECT_EQ(delta::TreeDigest(*live), good.target_digest);
}

TEST(PatchApplierTest, OutOfOrderOverlappingPatches) {
  std::unique_ptr<Document> document = ParseDocument(kApplierPage);
  std::unique_ptr<Element> v1 = delta::CanonicalizeDocument(*document);

  auto v2_owned = v1->Clone();
  Element* v2 = v2_owned->AsElement();
  Element* p = v2->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("second"));

  auto v3_owned = v1->Clone();
  Element* v3 = v3_owned->AsElement();
  v3->FindFirst("div")->SetAttribute("class", "third");

  delta::Patch p12 = MakePatch(*v1, *v2, 1000, 2000);
  delta::Patch p13 = MakePatch(*v1, *v3, 1000, 3000);

  // Normal delivery of v1 -> v2.
  ASSERT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, p12),
            delta::ApplyResult::kApplied);
  // Duplicate delivery: stale, ignored, no resync.
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 2000, p12),
            delta::ApplyResult::kStaleIgnored);
  // Overlapping patch built from the superseded base: newer target, but the
  // base no longer matches — it must be refused, not merged.
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 2000, p13),
            delta::ApplyResult::kBaseTimeMismatch);
  EXPECT_EQ(document->ById("p")->TextContent(), "second");
  EXPECT_EQ(document->ById("d")->AttrOr("class"), "");
}

TEST(PatchApplierTest, CommitPreservesSnippetBootstrapScript) {
  std::unique_ptr<Document> document = ParseDocument(
      "<html><head><script id=\"rcb-snippet\">/*boot*/</script>"
      "<title>A</title></head><body><p id=\"p\">v1</p></body></html>");
  std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  Element* p = target->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("v2"));

  ASSERT_EQ(delta::ApplyPatchToDocument(document.get(), 1000,
                                        MakePatch(*base, *target, 1000, 2000)),
            delta::ApplyResult::kApplied);
  // The Fig. 5 contract: the snippet survives every content apply.
  Element* script = document->ById("rcb-snippet");
  ASSERT_NE(script, nullptr);
  EXPECT_EQ(script->parent(), document->head());
  EXPECT_EQ(document->ById("p")->TextContent(), "v2");
}

// ---- End-to-end sessions -------------------------------------------------

std::string DeltaTestPage() {
  std::string page =
      "<html><head><title>Delta</title></head><body>"
      "<p id=\"status\">v1</p>"
      "<form id=\"f\" action=\"/s\" method=\"post\">"
      "<input name=\"q\" value=\"\"></form>";
  for (int i = 0; i < 40; ++i) {
    page += "<p>filler paragraph " + std::to_string(i) +
            " keeps the snapshot large enough that a one-op patch clears the "
            "size cutoff</p>";
  }
  page += "</body></html>";
  return page;
}

class DeltaSessionTest : public ::testing::Test {
 protected:
  DeltaSessionTest() : network_(&loop_) {}

  void StartSession(SessionOptions options) {
    network_.AddHost("delta.test",
                     {.uplink_bps = 10'000'000, .downlink_bps = 0});
    site_ = std::make_unique<SiteServer>(&loop_, &network_, "delta.test");
    site_->ServeStatic("/", "text/html", DeltaTestPage());
    session_ = std::make_unique<CoBrowsingSession>(&loop_, &network_, options);
    ASSERT_TRUE(session_->Start().ok());
    auto stats =
        session_->CoNavigate(Url::Make("http", "delta.test", 80, "/"));
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  void HostSetStatus(const std::string& text) {
    session_->host_browser()->MutateDocument([&](Document* document) {
      Element* status = document->ById("status");
      status->RemoveAllChildren();
      status->AppendChild(MakeText(text));
    });
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
  std::unique_ptr<CoBrowsingSession> session_;
};

TEST_F(DeltaSessionTest, SmallUpdatesTravelAsPatches) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);

  for (int round = 2; round <= 4; ++round) {
    HostSetStatus("v" + std::to_string(round));
    ASSERT_TRUE(session_->WaitForSync().ok());
    EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                  ->TextContent(),
              "v" + std::to_string(round));
  }
  const AgentMetrics& agent = session_->agent()->metrics();
  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  EXPECT_EQ(agent.patches_served, 3u);
  EXPECT_EQ(snippet.patches_applied, 3u);
  EXPECT_EQ(snippet.patch_digest_mismatches, 0u);
  EXPECT_EQ(snippet.patch_apply_errors, 0u);
  // The point of the subsystem: patches are much smaller than the snapshots
  // they replace.
  EXPECT_LT(agent.patch_bytes_sent * 3, agent.patch_snapshot_bytes);
}

TEST_F(DeltaSessionTest, TamperedParticipantDomForcesFullResync) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);

  // The participant's live DOM drifts (anything outside the protocol: a
  // browser extension, a script, a bug). The next patch's base digest no
  // longer matches, so it must be refused and a full snapshot requested.
  session_->participant_browser(0)->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("local drift"));
  });
  HostSetStatus("v2");
  ASSERT_TRUE(session_->WaitForSync().ok());

  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  EXPECT_GE(snippet.patch_digest_mismatches, 1u);
  EXPECT_GE(snippet.resyncs, 1u);
  EXPECT_EQ(snippet.patch_apply_errors, 0u);
  // Converged via the fallback: the drift is gone, the content is current.
  EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                ->TextContent(),
            "v2");
}

TEST_F(DeltaSessionTest, CoFillPatchesPeersAndResyncsTheFiller) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.participant_count = 2;
  options.enable_delta = true;
  StartSession(options);

  // Participant 0 co-fills; the local echo makes their DOM diverge from the
  // acked base, so they deterministically resync, while participant 1's
  // clean DOM receives the change as a patch.
  Browser* filler = session_->participant_browser(0);
  Element* form = filler->document()->ById("f");
  ASSERT_NE(form, nullptr);
  ASSERT_TRUE(session_->snippet(0)->FillFormField(form, "q", "hello").ok());
  session_->snippet(0)->PollNow();

  auto field_value = [](Browser* browser) {
    Element* form = browser->document()->ById("f");
    std::string value;
    form->ForEachElement([&](Element* element) {
      if (element->AttrOr("name") == "q") {
        value = element->AttrOr("value");
        return false;
      }
      return true;
    });
    return value;
  };
  // The action has to travel to the host, mutate the document there, and
  // come back around the poll loop — wait on the observed state, not on
  // WaitForSync (which is satisfied before the action even arrives).
  loop_.RunUntilCondition([&] {
    return field_value(session_->participant_browser(1)) == "hello" &&
           session_->snippet(0)->metrics().resyncs >= 1;
  });
  EXPECT_EQ(field_value(session_->participant_browser(0)), "hello");
  EXPECT_EQ(field_value(session_->participant_browser(1)), "hello");
  EXPECT_GE(session_->snippet(1)->metrics().patches_applied, 1u);
  EXPECT_EQ(session_->snippet(1)->metrics().patch_digest_mismatches, 0u);
  EXPECT_GE(session_->snippet(0)->metrics().patch_digest_mismatches, 1u);
  EXPECT_GE(session_->snippet(0)->metrics().resyncs, 1u);
}

TEST_F(DeltaSessionTest, DeltaOffSessionNeverSeesPatches) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = false;
  StartSession(options);

  HostSetStatus("v2");
  ASSERT_TRUE(session_->WaitForSync().ok());
  EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                ->TextContent(),
            "v2");
  EXPECT_EQ(session_->agent()->metrics().patches_served, 0u);
  EXPECT_EQ(session_->snippet(0)->metrics().patches_applied, 0u);
}

}  // namespace
}  // namespace rcb
