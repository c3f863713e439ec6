#include "src/html/serializer.h"

#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/util/escape.h"

namespace rcb {
namespace {

void SerializeInto(const Node& node, std::string* out,
                   std::vector<NodeSpan>* spans, bool raw_text_parent);

void SerializeChildrenInto(const Node& node, std::string* out,
                           std::vector<NodeSpan>* spans, bool raw_text_parent) {
  for (const auto& child : node.children()) {
    SerializeInto(*child, out, spans, raw_text_parent);
  }
}

// Spans for a subtree that emits no bytes (children of a void element).
void RecordUnserialized(const Node& node, uint32_t at,
                        std::vector<NodeSpan>* spans) {
  const size_t index = spans->size();
  spans->push_back({at, at, 0, node.type()});
  for (const auto& child : node.children()) {
    RecordUnserialized(*child, at, spans);
  }
  (*spans)[index].next = static_cast<uint32_t>(spans->size());
}

void SerializeInto(const Node& node, std::string* out,
                   std::vector<NodeSpan>* spans, bool raw_text_parent) {
  size_t index = 0;
  if (spans != nullptr) {
    index = spans->size();
    spans->push_back(
        {static_cast<uint32_t>(out->size()), 0, 0, node.type()});
  }
  switch (node.type()) {
    case NodeType::kDocument:
      SerializeChildrenInto(node, out, spans, /*raw_text_parent=*/false);
      break;
    case NodeType::kText:
      if (raw_text_parent) {
        // Script/style content is emitted verbatim.
        out->append(static_cast<const Text&>(node).data());
      } else {
        HtmlEscapeAppend(static_cast<const Text&>(node).data(), out);
      }
      break;
    case NodeType::kComment:
      out->append("<!--");
      out->append(static_cast<const Comment&>(node).data());
      out->append("-->");
      break;
    case NodeType::kDoctype:
      out->append("<!");
      out->append(static_cast<const Doctype&>(node).data());
      out->append(">");
      break;
    case NodeType::kElement: {
      const Element& element = static_cast<const Element&>(node);
      out->push_back('<');
      out->append(element.tag_name());
      for (const auto& [name, value] : element.attributes()) {
        out->push_back(' ');
        out->append(name);
        out->append("=\"");
        HtmlEscapeAppend(value, out);
        out->push_back('"');
      }
      out->push_back('>');
      if (IsVoidElement(element.tag_name())) {
        if (spans != nullptr) {
          for (const auto& child : element.children()) {
            RecordUnserialized(*child, static_cast<uint32_t>(out->size()),
                               spans);
          }
        }
        break;
      }
      SerializeChildrenInto(
          element, out, spans,
          HtmlTokenizer::IsRawTextElement(element.tag_name()));
      out->append("</");
      out->append(element.tag_name());
      out->push_back('>');
      break;
    }
  }
  if (spans != nullptr) {
    (*spans)[index].end = static_cast<uint32_t>(out->size());
    (*spans)[index].next = static_cast<uint32_t>(spans->size());
  }
}

}  // namespace

std::string SerializeNode(const Node& node) {
  std::string out;
  SerializeInto(node, &out, nullptr, /*raw_text_parent=*/false);
  return out;
}

void SerializeNodeInto(const Node& node, std::string* out,
                       std::vector<NodeSpan>* spans) {
  SerializeInto(node, out, spans, /*raw_text_parent=*/false);
}

std::string SerializeChildren(const Node& node) {
  std::string out;
  bool raw = false;
  if (const Element* element = node.AsElement()) {
    raw = HtmlTokenizer::IsRawTextElement(element->tag_name());
  }
  SerializeChildrenInto(node, &out, nullptr, raw);
  return out;
}

}  // namespace rcb
