#include "perfbench/src/pages.h"

#include "src/util/strings.h"

namespace perfbench {

PageInput SmallPage(SeededRng& rng, size_t index) {
  // Words are drawn into locals first: the order in which function arguments
  // are evaluated is unspecified, and the draws must happen in a fixed order.
  const std::string title1 = rng.Word();
  const std::string title2 = rng.Word();
  const std::string head1 = rng.Word();
  const std::string head2 = rng.Word();
  std::string html = rcb::StrFormat(
      "<html><head><title>%s %s %zu</title>"
      "<link rel=\"stylesheet\" href=\"/style.css\"></head><body>"
      "<h1>%s %s</h1><p id=\"%s\">ready</p><ul>",
      title1.c_str(), title2.c_str(), index, head1.c_str(), head2.c_str(),
      kStatusId);
  for (int i = 0; i < 8; ++i) {
    const std::string word = rng.Word();
    const std::string label = rng.Word();
    html += rcb::StrFormat("<li><a href=\"/%s/%d\">%s %s</a></li>",
                           word.c_str(), i, word.c_str(), label.c_str());
  }
  html +=
      "</ul><form id=\"search\" action=\"/search\" method=\"get\">"
      "<input type=\"text\" name=\"q\" value=\"\">"
      "<input type=\"submit\" value=\"Search\"></form><p>";
  while (html.size() < 1000) {
    html += rng.Word() + " ";
  }
  html += "</p></body></html>";
  PageInput page;
  page.html = std::move(html);
  page.url = rcb::Url::Make("http", rcb::StrFormat("www.site%zu.example", index),
                            80, "/");
  return page;
}

PageInput Table1Page(const rcb::SiteSpec& spec) {
  rcb::GeneratedSite site = rcb::GenerateHomepage(spec);
  PageInput page;
  page.html = std::move(site.html);
  page.url = rcb::Url::Make("http", spec.host, 80, "/");
  page.objects = std::move(site.objects);
  return page;
}

void CacheObjects(const PageInput& page, rcb::ObjectCache* cache) {
  for (const rcb::GeneratedObject& object : page.objects) {
    cache->Put(rcb::Url::Make("http", page.url.host(), 80, object.path),
               object.content_type, object.body);
  }
}

void PrepareDocument(rcb::Document* document) {
  if (document->ById(kStatusId) != nullptr) {
    return;
  }
  auto status = rcb::MakeElement("p");
  status->SetAttribute("id", kStatusId);
  status->AppendChild(rcb::MakeText("live"));
  document->body()->AppendChild(std::move(status));
}

void TextEdit(rcb::Document* document, const std::string& text) {
  rcb::Element* status = document->ById(kStatusId);
  status->RemoveAllChildren();
  status->AppendChild(rcb::MakeText(text));
}

void FillEdit(rcb::Document* document, const std::string& value) {
  rcb::Element* input = document->FindFirst("input");
  if (input != nullptr) {
    input->SetAttribute("value", value);
  } else {
    document->body()->SetAttribute("data-fill", value);
  }
}

}  // namespace perfbench
