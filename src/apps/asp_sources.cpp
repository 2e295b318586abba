#include "apps/asp_sources.hpp"

#include <algorithm>
#include <stdexcept>

namespace asp::apps {

namespace {

struct AspFile {
  std::string_view name;
  std::string_view text;
};

constexpr AspFile kAspFiles[] = {
#include "asp_files.inc"
};

}  // namespace

std::string override_vals(std::string text, std::initializer_list<ValOverride> overrides) {
  for (const ValOverride& o : overrides) {
    // A top-level declaration starts its line; the name ends at ' ' or ':'.
    const std::string decl = "val " + std::string(o.name);
    const std::string head = '\n' + decl, lines = '\n' + text;
    std::size_t bol = std::string::npos;
    for (std::size_t at = lines.find(head); at != std::string::npos;
         at = lines.find(head, at + 1)) {
      const char next = lines[at + head.size()];
      if (next != ' ' && next != ':') continue;
      if (bol != std::string::npos) throw std::invalid_argument(decl + " twice");
      bol = at;  // `at` in `lines` is the line's start in `text`
    }
    if (bol == std::string::npos) throw std::invalid_argument("no top-level " + decl);
    const std::size_t eol = std::min(text.find('\n', bol), text.size());
    std::size_t begin = text.find("= ", bol);
    if (begin >= eol) throw std::invalid_argument(decl + " has no initialiser");
    begin += 2;
    std::size_t end = std::min(text.find("--", begin), eol);
    while (end > begin && text[end - 1] == ' ') --end;
    text.replace(begin, end - begin, o.value);
  }
  return text;
}

std::string asp_source(std::string_view name, std::initializer_list<ValOverride> overrides) {
  for (const AspFile& f : kAspFiles) {
    if (f.name == name) return override_vals(std::string(f.text), overrides);
  }
  throw std::invalid_argument("no embedded ASP asps/" + std::string(name) + ".planp");
}

std::vector<std::string_view> asp_names() {
  std::vector<std::string_view> out;
  for (const AspFile& f : kAspFiles) out.push_back(f.name);
  return out;
}

}  // namespace asp::apps
