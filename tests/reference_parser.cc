// The HTML and JS unescapes, the tokenizer and the fragment parser as they
// ran before they scanned by runs, kept verbatim as test oracles (only the
// names differ). They append one byte at a time, look for a text token's end
// one offset at a time, try the raw-text close tag at every offset, and move
// parsed fragment children out one front erase at a time. HtmlUnescape,
// JsUnescape, HtmlTokenizer and ParseFragment must give exactly the same
// strings, tokens and trees (html_test).
#include "tests/reference_parser.h"

#include <array>
#include <cctype>
#include <cstdint>

#include "src/html/parser.h"
#include "src/util/strings.h"

namespace rcb::reference {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

// Emits a code point: a raw byte for the Latin-1 range (our DOM stores
// bytes), UTF-8 for anything above it.
void AppendCodePoint(uint32_t cp, std::string* out) {
  if (cp <= 0xFF) {
    out->push_back(static_cast<char>(cp));
  } else if (cp <= 0x7FF) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

std::string ReferenceJsUnescape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (size_t i = 0; i < input.size();) {
    if (input[i] == '%' && i + 5 < input.size() &&
        (input[i + 1] == 'u' || input[i + 1] == 'U')) {
      int h1 = HexValue(input[i + 2]);
      int h2 = HexValue(input[i + 3]);
      int h3 = HexValue(input[i + 4]);
      int h4 = HexValue(input[i + 5]);
      if (h1 >= 0 && h2 >= 0 && h3 >= 0 && h4 >= 0) {
        // Latin-1 as raw bytes, UTF-8 above: our DOM stores bytes, so
        // this is the round-trippable representation.
        AppendCodePoint(
            static_cast<uint32_t>((h1 << 12) | (h2 << 8) | (h3 << 4) | h4),
            &out);
        i += 6;
        continue;
      }
    }
    if (input[i] == '%' && i + 2 < input.size()) {
      int hi = HexValue(input[i + 1]);
      int lo = HexValue(input[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 3;
        continue;
      }
    }
    out.push_back(input[i]);
    ++i;
  }
  return out;
}

namespace {

// Common named character references of 2009-era HTML (HTML 4.01 subset).
// Code points map to Latin-1 bytes when <= 0xFF, UTF-8 otherwise, matching
// the numeric-reference behaviour below.
struct NamedEntity {
  std::string_view name;
  uint32_t code_point;
};
constexpr NamedEntity kNamedEntities[] = {
    {"nbsp", 0xA0},    {"iexcl", 0xA1},  {"cent", 0xA2},   {"pound", 0xA3},
    {"curren", 0xA4},  {"yen", 0xA5},    {"brvbar", 0xA6}, {"sect", 0xA7},
    {"uml", 0xA8},     {"copy", 0xA9},   {"ordf", 0xAA},   {"laquo", 0xAB},
    {"not", 0xAC},     {"shy", 0xAD},    {"reg", 0xAE},    {"macr", 0xAF},
    {"deg", 0xB0},     {"plusmn", 0xB1}, {"sup2", 0xB2},   {"sup3", 0xB3},
    {"acute", 0xB4},   {"micro", 0xB5},  {"para", 0xB6},   {"middot", 0xB7},
    {"cedil", 0xB8},   {"sup1", 0xB9},   {"ordm", 0xBA},   {"raquo", 0xBB},
    {"frac14", 0xBC},  {"frac12", 0xBD}, {"frac34", 0xBE}, {"iquest", 0xBF},
    {"Agrave", 0xC0},  {"Aacute", 0xC1}, {"Auml", 0xC4},   {"Aring", 0xC5},
    {"AElig", 0xC6},   {"Ccedil", 0xC7}, {"Egrave", 0xC8}, {"Eacute", 0xC9},
    {"Ntilde", 0xD1},  {"Ouml", 0xD6},   {"times", 0xD7},  {"Oslash", 0xD8},
    {"Uuml", 0xDC},    {"szlig", 0xDF},  {"agrave", 0xE0}, {"aacute", 0xE1},
    {"auml", 0xE4},    {"aring", 0xE5},  {"aelig", 0xE6},  {"ccedil", 0xE7},
    {"egrave", 0xE8},  {"eacute", 0xE9}, {"iuml", 0xEF},   {"ntilde", 0xF1},
    {"ouml", 0xF6},    {"divide", 0xF7}, {"oslash", 0xF8}, {"uuml", 0xFC},
    {"euro", 0x20AC},  {"ndash", 0x2013},{"mdash", 0x2014},{"lsquo", 0x2018},
    {"rsquo", 0x2019}, {"ldquo", 0x201C},{"rdquo", 0x201D},{"bull", 0x2022},
    {"hellip", 0x2026},{"dagger", 0x2020},{"permil", 0x2030},{"trade", 0x2122},
    {"larr", 0x2190},  {"uarr", 0x2191}, {"rarr", 0x2192}, {"darr", 0x2193},
};

}  // namespace

std::string ReferenceHtmlUnescape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (size_t i = 0; i < input.size();) {
    if (input[i] != '&') {
      out.push_back(input[i]);
      ++i;
      continue;
    }
    size_t semi = input.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back(input[i]);
      ++i;
      continue;
    }
    std::string_view entity = input.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else if (const NamedEntity* named = [&]() -> const NamedEntity* {
                 for (const NamedEntity& candidate : kNamedEntities) {
                   if (candidate.name == entity) {
                     return &candidate;
                   }
                 }
                 return nullptr;
               }()) {
      AppendCodePoint(named->code_point, &out);
    } else if (!entity.empty() && entity[0] == '#') {
      int cp = 0;
      bool valid = false;
      if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (size_t k = 2; k < entity.size(); ++k) {
          int v = HexValue(entity[k]);
          if (v < 0) {
            cp = -1;
            break;
          }
          cp = cp * 16 + v;
        }
        valid = entity.size() > 2 && cp >= 0;
      } else {
        valid = entity.size() > 1;
        for (size_t k = 1; k < entity.size(); ++k) {
          if (entity[k] < '0' || entity[k] > '9') {
            valid = false;
            break;
          }
          cp = cp * 10 + (entity[k] - '0');
        }
      }
      if (valid && cp >= 0 && cp <= 0x10FFFF) {
        AppendCodePoint(static_cast<uint32_t>(cp), &out);
      } else {
        out.append(input.substr(i, semi - i + 1));
      }
    } else {
      out.append(input.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

namespace {

bool IsTagNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == ':';
}

bool IsAttrNameChar(char c) {
  return !std::isspace(static_cast<unsigned char>(c)) && c != '=' && c != '>' &&
         c != '/' && c != '"' && c != '\'';
}

}  // namespace

HtmlToken ReferenceHtmlTokenizer::Next() {
  if (!pending_raw_text_tag_.empty()) {
    std::string tag = std::move(pending_raw_text_tag_);
    pending_raw_text_tag_.clear();
    return LexRawText(tag);
  }
  if (pos_ >= input_.size()) {
    return HtmlToken{};
  }
  if (input_[pos_] == '<') {
    if (input_.substr(pos_, 4) == "<!--") {
      return LexComment();
    }
    if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '!') {
      return LexDoctypeOrBogus();
    }
    if (pos_ + 1 < input_.size() &&
        (std::isalpha(static_cast<unsigned char>(input_[pos_ + 1])) ||
         input_[pos_ + 1] == '/')) {
      return LexTag();
    }
    // Stray '<' treated as text.
  }
  return LexText();
}

HtmlToken ReferenceHtmlTokenizer::LexText() {
  size_t start = pos_;
  while (pos_ < input_.size()) {
    if (input_[pos_] == '<' && pos_ + 1 < input_.size() &&
        (std::isalpha(static_cast<unsigned char>(input_[pos_ + 1])) ||
         input_[pos_ + 1] == '/' || input_[pos_ + 1] == '!')) {
      break;
    }
    ++pos_;
  }
  HtmlToken token;
  token.type = HtmlToken::Type::kText;
  token.data = ReferenceHtmlUnescape(input_.substr(start, pos_ - start));
  return token;
}

HtmlToken ReferenceHtmlTokenizer::LexComment() {
  pos_ += 4;  // consume "<!--"
  size_t end = input_.find("-->", pos_);
  HtmlToken token;
  token.type = HtmlToken::Type::kComment;
  if (end == std::string_view::npos) {
    token.data = std::string(input_.substr(pos_));
    pos_ = input_.size();
  } else {
    token.data = std::string(input_.substr(pos_, end - pos_));
    pos_ = end + 3;
  }
  return token;
}

HtmlToken ReferenceHtmlTokenizer::LexDoctypeOrBogus() {
  // "<!DOCTYPE ...>" or any other "<!...>" construct.
  size_t end = input_.find('>', pos_);
  HtmlToken token;
  token.type = HtmlToken::Type::kDoctype;
  if (end == std::string_view::npos) {
    token.data = std::string(input_.substr(pos_ + 2));
    pos_ = input_.size();
  } else {
    token.data = std::string(input_.substr(pos_ + 2, end - pos_ - 2));
    pos_ = end + 1;
  }
  return token;
}

HtmlToken ReferenceHtmlTokenizer::LexTag() {
  ++pos_;  // consume '<'
  HtmlToken token;
  if (input_[pos_] == '/') {
    token.type = HtmlToken::Type::kEndTag;
    ++pos_;
  } else {
    token.type = HtmlToken::Type::kStartTag;
  }
  size_t name_start = pos_;
  while (pos_ < input_.size() && IsTagNameChar(input_[pos_])) {
    ++pos_;
  }
  token.tag_name = AsciiToLower(input_.substr(name_start, pos_ - name_start));

  if (token.type == HtmlToken::Type::kStartTag) {
    LexAttributes(&token);
  } else {
    // Skip anything up to '>'.
    while (pos_ < input_.size() && input_[pos_] != '>') {
      ++pos_;
    }
  }
  if (pos_ < input_.size() && input_[pos_] == '>') {
    ++pos_;
  }
  if (token.type == HtmlToken::Type::kStartTag && !token.self_closing &&
      HtmlTokenizer::IsRawTextElement(token.tag_name)) {
    pending_raw_text_tag_ = token.tag_name;
  }
  return token;
}

void ReferenceHtmlTokenizer::LexAttributes(HtmlToken* token) {
  while (pos_ < input_.size()) {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= input_.size()) {
      return;
    }
    if (input_[pos_] == '>') {
      return;
    }
    if (input_[pos_] == '/') {
      ++pos_;
      // "/>" marks self-closing; a stray '/' is skipped.
      if (pos_ < input_.size() && input_[pos_] == '>') {
        token->self_closing = true;
        return;
      }
      continue;
    }
    size_t name_start = pos_;
    while (pos_ < input_.size() && IsAttrNameChar(input_[pos_])) {
      ++pos_;
    }
    if (pos_ == name_start) {
      ++pos_;  // defensive: never stall
      continue;
    }
    std::string name = AsciiToLower(input_.substr(name_start, pos_ - name_start));
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    std::string value;
    if (pos_ < input_.size() && input_[pos_] == '=') {
      ++pos_;
      while (pos_ < input_.size() &&
             std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      if (pos_ < input_.size() && (input_[pos_] == '"' || input_[pos_] == '\'')) {
        char quote = input_[pos_++];
        size_t value_start = pos_;
        while (pos_ < input_.size() && input_[pos_] != quote) {
          ++pos_;
        }
        value = ReferenceHtmlUnescape(input_.substr(value_start, pos_ - value_start));
        if (pos_ < input_.size()) {
          ++pos_;  // closing quote
        }
      } else {
        size_t value_start = pos_;
        while (pos_ < input_.size() &&
               !std::isspace(static_cast<unsigned char>(input_[pos_])) &&
               input_[pos_] != '>') {
          ++pos_;
        }
        value = ReferenceHtmlUnescape(input_.substr(value_start, pos_ - value_start));
      }
    }
    token->attributes.emplace_back(std::move(name), std::move(value));
  }
}

HtmlToken ReferenceHtmlTokenizer::LexRawText(const std::string& tag) {
  // Scan for "</tag" case-insensitively.
  std::string close = "</" + tag;
  size_t found = std::string_view::npos;
  for (size_t i = pos_; i + close.size() <= input_.size(); ++i) {
    if (EqualsIgnoreCase(input_.substr(i, close.size()), close)) {
      found = i;
      break;
    }
  }
  HtmlToken token;
  token.type = HtmlToken::Type::kText;
  if (found == std::string_view::npos) {
    token.data = std::string(input_.substr(pos_));
    pos_ = input_.size();
  } else {
    token.data = std::string(input_.substr(pos_, found - pos_));
    pos_ = found;  // the end tag is lexed by the next Next() call
  }
  return token;
}

namespace {

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

// Builds a node tree from tokens under `root`.
void ReferenceBuildTree(std::string_view html, Node* root) {
  ReferenceHtmlTokenizer tokenizer(html);
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

}  // namespace

std::vector<std::unique_ptr<Node>> ReferenceParseFragment(
    std::string_view html) {
  // Parse under a detached scratch element, then release the children.
  auto scratch = MakeElement("div");
  ReferenceBuildTree(html, scratch.get());
  std::vector<std::unique_ptr<Node>> out;
  while (scratch->child_count() > 0) {
    out.push_back(scratch->RemoveChild(scratch->child_at(0)));
  }
  return out;
}

}  // namespace rcb::reference
