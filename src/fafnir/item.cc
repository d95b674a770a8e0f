/**
 * @file
 * Item debugging helpers.
 */

#include "item.hh"

namespace fafnir::core
{

std::string
Item::toString(const IndexSetTable &sets) const
{
    std::string s =
        "[indices:" + sets.indexSet(indices).toString() + " | queries:";
    for (std::size_t i = 0; i < queries.size(); ++i) {
        if (i)
            s += ' ';
        s += 'q' + std::to_string(queries[i]) + ':' +
             sets.residual(indices, queries[i]).toString();
    }
    return s + "]";
}

} // namespace fafnir::core
