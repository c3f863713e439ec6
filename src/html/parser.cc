#include "src/html/parser.h"

#include <array>

#include "src/html/serializer.h"
#include "src/html/tokenizer.h"

namespace rcb {

bool IsVoidElement(std::string_view tag) {
  static constexpr std::array<std::string_view, 14> kVoid = {
      "area", "base", "br",    "col",   "embed",  "hr",    "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  for (std::string_view v : kVoid) {
    if (tag == v) {
      return true;
    }
  }
  return false;
}

// Implied-end-tag rules (HTML 4 era): opening one of these elements closes a
// still-open element of the listed kinds. Real 2009 markup leaned on this
// heavily (unclosed <li>, <p>, <td>...).
bool ClosesImplicitly(std::string_view opening, std::string_view open_tag) {
  if (opening == "li") {
    return open_tag == "li";
  }
  if (opening == "p") {
    return open_tag == "p";
  }
  if (opening == "option") {
    return open_tag == "option";
  }
  if (opening == "tr") {
    return open_tag == "tr" || open_tag == "td" || open_tag == "th";
  }
  if (opening == "td" || opening == "th") {
    return open_tag == "td" || open_tag == "th";
  }
  if (opening == "dt" || opening == "dd") {
    return open_tag == "dt" || open_tag == "dd";
  }
  // Block-level elements terminate an open paragraph.
  if (opening == "div" || opening == "ul" || opening == "ol" ||
      opening == "table" || opening == "form" || opening == "h1" ||
      opening == "h2" || opening == "h3" || opening == "blockquote" ||
      opening == "pre") {
    return open_tag == "p";
  }
  return false;
}

namespace {

// Builds a node tree from tokens under `root`.
void BuildTree(std::string_view html, Node* root) {
  HtmlTokenizer tokenizer(html);
  std::vector<Node*> stack;
  stack.push_back(root);

  while (true) {
    HtmlToken token = tokenizer.Next();
    switch (token.type) {
      case HtmlToken::Type::kEndOfFile:
        return;
      case HtmlToken::Type::kText: {
        if (token.data.empty()) {
          break;
        }
        stack.back()->AppendChild(MakeText(std::move(token.data)));
        break;
      }
      case HtmlToken::Type::kComment:
        stack.back()->AppendChild(std::make_unique<Comment>(std::move(token.data)));
        break;
      case HtmlToken::Type::kDoctype:
        stack.back()->AppendChild(std::make_unique<Doctype>(std::move(token.data)));
        break;
      case HtmlToken::Type::kStartTag: {
        // Pop elements this start tag implicitly terminates.
        while (stack.size() > 1) {
          Element* open = stack.back()->AsElement();
          if (open != nullptr && ClosesImplicitly(token.tag_name, open->tag_name())) {
            stack.pop_back();
          } else {
            break;
          }
        }
        auto element = MakeElement(token.tag_name);
        for (auto& [name, value] : token.attributes) {
          element->SetAttribute(name, value);
        }
        Node* raw = stack.back()->AppendChild(std::move(element));
        if (!token.self_closing && !IsVoidElement(token.tag_name)) {
          stack.push_back(raw);
        }
        break;
      }
      case HtmlToken::Type::kEndTag: {
        // Pop to the nearest matching open element; ignore stray end tags.
        for (size_t i = stack.size(); i-- > 1;) {
          Element* element = stack[i]->AsElement();
          if (element != nullptr && element->tag_name() == token.tag_name) {
            stack.resize(i);
            break;
          }
        }
        break;
      }
    }
  }
}

// Heads-only elements that belong in <head> when found at the top of a
// document missing explicit structure.
bool IsHeadContent(const Element& element) {
  const std::string& tag = element.tag_name();
  return tag == "title" || tag == "meta" || tag == "link" || tag == "style" ||
         tag == "base";
}

}  // namespace

std::unique_ptr<Document> ParseDocument(std::string_view html) {
  auto document = std::make_unique<Document>();
  BuildTree(html, document.get());

  // Scaffold normalization: guarantee an <html> root.
  Element* root = document->document_element();
  if (root == nullptr) {
    // Move existing top-level nodes (except doctype/comments) under a new
    // <html>.
    auto html_owned = MakeElement("html");
    Element* html_element = html_owned.get();
    std::vector<std::unique_ptr<Node>> moved;
    while (document->child_count() > 0) {
      Node* child = document->child_at(0);
      std::unique_ptr<Node> owned = document->RemoveChild(child);
      if (owned->type() == NodeType::kDoctype ||
          owned->type() == NodeType::kComment) {
        moved.push_back(std::move(owned));
      } else {
        html_element->AppendChild(std::move(owned));
      }
    }
    for (auto& node : moved) {
      document->AppendChild(std::move(node));
    }
    document->AppendChild(std::move(html_owned));
    root = html_element;
  }

  // Frameset documents keep html > (head, frameset[, noframes]).
  bool is_frameset = root->ChildByTag("frameset") != nullptr;

  Element* head = root->ChildByTag("head");
  if (head == nullptr) {
    auto head_owned = MakeElement("head");
    head = head_owned->AsElement();
    root->InsertBefore(std::move(head_owned), root->first_child());
    // Relocate stray head-content elements that ended up directly under html.
    std::vector<Node*> to_move;
    for (const auto& child : root->children()) {
      Element* element = child->AsElement();
      if (element != nullptr && element != head && IsHeadContent(*element)) {
        to_move.push_back(child.get());
      }
    }
    for (Node* node : to_move) {
      head->AppendChild(root->RemoveChild(node));
    }
  }

  if (!is_frameset && root->ChildByTag("body") == nullptr) {
    auto body_owned = MakeElement("body");
    Element* body = body_owned->AsElement();
    root->AppendChild(std::move(body_owned));
    // Move non-head top-level content into the body.
    std::vector<Node*> to_move;
    for (const auto& child : root->children()) {
      Element* element = child->AsElement();
      if (child.get() == head || child.get() == body) {
        continue;
      }
      if (element != nullptr || child->type() == NodeType::kText) {
        to_move.push_back(child.get());
      }
    }
    for (Node* node : to_move) {
      body->AppendChild(root->RemoveChild(node));
    }
  }

  return document;
}

std::vector<std::unique_ptr<Node>> ParseFragment(std::string_view html) {
  // Parse under a detached scratch element, then release the children.
  auto scratch = MakeElement("div");
  BuildTree(html, scratch.get());
  return scratch->TakeChildren();
}

std::string Element::InnerHtml() const { return SerializeChildren(*this); }

void Element::SetInnerHtml(std::string_view html) {
  ReplaceChildren(ParseFragment(html));
}

std::string Element::OuterHtml() const { return SerializeNode(*this); }

}  // namespace rcb
