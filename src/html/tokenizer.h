// HTML tokenizer.
//
// Produces a flat token stream (start tags with attributes, end tags, text,
// comments, doctype) from HTML source. Raw-text elements (script, style,
// textarea, title) swallow their content verbatim until the matching close
// tag, which is what lets RCB ship inline JavaScript through innerHTML
// without executing or corrupting it (§4.2.2).
#ifndef SRC_HTML_TOKENIZER_H_
#define SRC_HTML_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace rcb {

struct HtmlToken {
  enum class Type { kStartTag, kEndTag, kText, kComment, kDoctype, kEndOfFile };

  Type type = Type::kEndOfFile;
  std::string tag_name;  // lowercase, for tag tokens
  std::vector<std::pair<std::string, std::string>> attributes;
  bool self_closing = false;
  std::string data;  // text/comment/doctype payload
};

class HtmlTokenizer {
 public:
  explicit HtmlTokenizer(std::string_view input) : input_(input) {}

  // Returns the next token; kEndOfFile forever once exhausted.
  HtmlToken Next();

  // True for elements whose content is raw text (no markup inside).
  static bool IsRawTextElement(std::string_view tag);

  // True when `name`, written into a start tag as a tag name (or as an
  // attribute name before `="`), is lexed back as exactly `name`.
  static bool LexesAsTagName(std::string_view name);
  static bool LexesAsAttributeName(std::string_view name);

 private:
  HtmlToken LexTag();
  HtmlToken LexComment();
  HtmlToken LexDoctypeOrBogus();
  HtmlToken LexText();
  HtmlToken LexRawText(const std::string& tag);
  void LexAttributes(HtmlToken* token);

  std::string_view input_;
  size_t pos_ = 0;
  // Set after a raw-text start tag; the next token is its text content.
  std::string pending_raw_text_tag_;
};

}  // namespace rcb

#endif  // SRC_HTML_TOKENIZER_H_
