/**
 * @file
 * ASCII table printer used by the sweeps' render hooks to emit rows in
 * the same shape as the paper's tables and figure data series.
 */
#ifndef ANVIL_COMMON_TABLE_HH
#define ANVIL_COMMON_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace anvil {

/** Column-aligned text table with a title, header row, and data rows. */
class TextTable
{
  public:
    explicit TextTable(std::string title) : title_(std::move(title)) {}

    /** Sets the header row. */
    void set_header(std::vector<std::string> header);

    /** Appends a data row (cells may be fewer than header columns). */
    void add_row(std::vector<std::string> row);

    /** Renders the table. */
    void print(std::ostream &os) const;

    /** Formats a double with @p digits fractional digits. */
    static std::string fmt(double value, int digits = 2);

    /** Formats an integer with thousands separators (e.g. "220,000"). */
    static std::string fmt_count(std::uint64_t value);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace anvil

#endif  // ANVIL_COMMON_TABLE_HH
