#include "src/tools/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "src/tools/metrics.h"

namespace delirium::tools {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_sep = [&] {
    os << '+';
    for (size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << ' ' << cell << std::string(widths[c] - cell.size() + 1, ' ') << '|';
    }
    os << '\n';
  };
  print_sep();
  print_row(header_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string Table::ms(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string Table::ratio(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value << "x";
  return os.str();
}

std::string Table::count(uint64_t value) { return std::to_string(value); }

void print_timing_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const OperatorRegistry& registry, size_t limit) {
  std::vector<OpSlice> slices = op_slices(events);
  std::erase_if(slices, [&registry](const OpSlice& s) {
    return operator_name(registry, s.op) == nullptr;
  });
  size_t n = 0;
  for (const OpSlice& s : slices) {
    os << "call of " << *operator_name(registry, s.op) << " took " << s.duration << '\n';
    if (limit > 0 && ++n >= limit) {
      os << "... (" << slices.size() - n << " more)\n";
      return;
    }
  }
}

void print_run_stats(std::ostream& os, const RunStats& s) {
  // One schema source: the same run_stat_fields list feeds this dump,
  // the metrics JSON, and the Prometheus export (src/tools/metrics.h).
  const std::vector<RunStatField> fields = run_stat_fields(s);
  size_t width = 0;
  for (const RunStatField& f : fields) width = std::max(width, std::string(f.name).size());
  width += 2;  // ':' plus at least one space
  for (const RunStatField& f : fields) {
    std::string label = std::string(f.name) + ':';
    label.resize(width, ' ');
    os << label << f.value << '\n';
  }
}

double median_of(int repeats, const std::function<double()>& fn) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int i = 0; i < std::max(repeats, 1); ++i) samples.push_back(fn());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace delirium::tools
