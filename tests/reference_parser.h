// The pre-run-scanning unescapes, tokenizer and fragment parser, kept
// verbatim as test oracles (see reference_parser.cc).
#ifndef TESTS_REFERENCE_PARSER_H_
#define TESTS_REFERENCE_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/html/dom.h"
#include "src/html/tokenizer.h"

namespace rcb::reference {

std::string ReferenceJsUnescape(std::string_view input);
std::string ReferenceHtmlUnescape(std::string_view input);

// HtmlTokenizer as it was: same tokens, scanned one offset at a time.
class ReferenceHtmlTokenizer {
 public:
  explicit ReferenceHtmlTokenizer(std::string_view input) : input_(input) {}

  HtmlToken Next();

 private:
  HtmlToken LexTag();
  HtmlToken LexComment();
  HtmlToken LexDoctypeOrBogus();
  HtmlToken LexText();
  HtmlToken LexRawText(const std::string& tag);
  void LexAttributes(HtmlToken* token);

  std::string_view input_;
  size_t pos_ = 0;
  std::string pending_raw_text_tag_;
};

std::vector<std::unique_ptr<Node>> ReferenceParseFragment(
    std::string_view html);

}  // namespace rcb::reference

#endif  // TESTS_REFERENCE_PARSER_H_
