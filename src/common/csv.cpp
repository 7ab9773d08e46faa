#include "common/csv.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json_util.h"

namespace vlacnn {

namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

CsvTable parse_csv(const std::string& text, const CsvReadOptions& opts,
                   const std::string& source) {
  CsvTable table;
  table.complete_tail = text.empty() || text.back() == '\n';

  // Collect non-empty lines with their 1-based line numbers first, so the
  // ragged-row check below knows which line is last.
  std::vector<std::pair<std::string, int>> lines;
  {
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      lines.emplace_back(std::move(line), line_no);
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto fields = split_line(lines[i].first);
    if (i == 0) {
      table.header = std::move(fields);
      table.header_line = lines[i].second;
      continue;
    }
    if (fields.size() != table.header.size()) {
      if (opts.tolerate_partial_tail && i + 1 == lines.size()) {
        table.dropped_partial_tail = true;
        break;
      }
      throw std::runtime_error(source + ":" + std::to_string(lines[i].second) +
                               ": ragged row ('" + lines[i].first + "')");
    }
    table.rows.push_back(std::move(fields));
    table.row_lines.push_back(lines[i].second);
  }
  return table;
}

CsvTable read_csv_file(const std::string& path, const CsvReadOptions& opts) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_csv(buf.str(), opts, path);
}

namespace {

void append_fields(std::string& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ',';
    out += fields[i];
  }
  out += '\n';
}

}  // namespace

void write_csv_file(const std::string& path, const CsvTable& table) {
  std::string text;
  append_fields(text, table.header);
  for (const auto& row : table.rows) append_fields(text, row);
  obs::write_text_file(path, text, "csv");
}

}  // namespace vlacnn
