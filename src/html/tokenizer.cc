#include "src/html/tokenizer.h"

#include <cctype>

#include "src/util/escape.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

bool IsTagNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == ':';
}

bool IsAttrNameChar(char c) {
  return !std::isspace(static_cast<unsigned char>(c)) && c != '=' && c != '>' &&
         c != '/' && c != '"' && c != '\'';
}

}  // namespace

bool HtmlTokenizer::IsRawTextElement(std::string_view tag) {
  return tag == "script" || tag == "style" || tag == "textarea" || tag == "title";
}

bool HtmlTokenizer::LexesAsTagName(std::string_view name) {
  if (name.empty() || !std::isalpha(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!IsTagNameChar(c) || (c >= 'A' && c <= 'Z')) {
      return false;
    }
  }
  return true;
}

bool HtmlTokenizer::LexesAsAttributeName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    if (!IsAttrNameChar(c) || (c >= 'A' && c <= 'Z')) {
      return false;
    }
  }
  return true;
}

HtmlToken HtmlTokenizer::Next() {
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

HtmlToken HtmlTokenizer::LexText() {
  size_t start = pos_;
  // Text runs to the next '<' that opens markup; a stray '<' is text.
  while (true) {
    pos_ = input_.find('<', pos_);
    if (pos_ == std::string_view::npos) {
      pos_ = input_.size();
      break;
    }
    if (pos_ + 1 < input_.size() &&
        (std::isalpha(static_cast<unsigned char>(input_[pos_ + 1])) ||
         input_[pos_ + 1] == '/' || input_[pos_ + 1] == '!')) {
      break;
    }
    ++pos_;
  }
  HtmlToken token;
  token.type = HtmlToken::Type::kText;
  token.data = HtmlUnescape(input_.substr(start, pos_ - start));
  return token;
}

HtmlToken HtmlTokenizer::LexComment() {
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

HtmlToken HtmlTokenizer::LexDoctypeOrBogus() {
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

HtmlToken HtmlTokenizer::LexTag() {
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
      IsRawTextElement(token.tag_name)) {
    pending_raw_text_tag_ = token.tag_name;
  }
  return token;
}

void HtmlTokenizer::LexAttributes(HtmlToken* token) {
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
        value = HtmlUnescape(input_.substr(value_start, pos_ - value_start));
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
        value = HtmlUnescape(input_.substr(value_start, pos_ - value_start));
      }
    }
    token->attributes.emplace_back(std::move(name), std::move(value));
  }
}

HtmlToken HtmlTokenizer::LexRawText(const std::string& tag) {
  // Scan for "</tag", the tag case-insensitively: jump from "</" to "</".
  size_t found = input_.find("</", pos_);
  while (found != std::string_view::npos &&
         !EqualsIgnoreCase(input_.substr(found + 2, tag.size()), tag)) {
    found = input_.find("</", found + 2);
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

}  // namespace rcb
