/**
 * @file
 * Implementation of the address decoder.
 */

#include "address.hh"

#include <sstream>

namespace fafnir::dram
{

AddressMapper::AddressMapper(const Geometry &geometry, Interleave policy,
                             unsigned block_bytes)
    : geometry_(geometry), policy_(policy), blockBytes_(block_bytes)
{
    geometry_.check();
    FAFNIR_ASSERT(isPowerOf2(blockBytes_), "block size must be power of 2");
    FAFNIR_ASSERT(blockBytes_ >= geometry_.burstBytes,
                  "block smaller than a burst");
    FAFNIR_ASSERT(blockBytes_ <= geometry_.rowBytes,
                  "block larger than a row");
    FAFNIR_ASSERT(isPowerOf2(geometry_.dimmsPerChannel) &&
                      isPowerOf2(geometry_.ranksPerDimm),
                  "per-channel geometry must be powers of two");
    // BlockRank keeps a block on one rank and row, its bursts on
    // consecutive columns. LineChannel puts the column bits right above
    // the channel bits, so bursts step the column only with one channel.
    if (policy_ == Interleave::BlockRank)
        columnRun_ = blockBytes_;
    else if (geometry_.channels == 1)
        columnRun_ = geometry_.rowBytes;
    else
        columnRun_ = geometry_.burstBytes;
}

unsigned
AddressMapper::rankShift() const
{
    FAFNIR_ASSERT(policy_ == Interleave::BlockRank,
                  "rankShift only defined for BlockRank interleave");
    return floorLog2(blockBytes_);
}

Coordinates
AddressMapper::decode(Addr addr) const
{
    const Geometry &g = geometry_;
    FAFNIR_ASSERT(addr < g.capacityBytes(), "address 0x", std::hex, addr,
                  " beyond capacity");

    Coordinates c;
    if (policy_ == Interleave::BlockRank) {
        const unsigned offset_bits = floorLog2(blockBytes_);
        const unsigned rank_bits = floorLog2(g.totalRanks());
        const unsigned blocks_per_row = g.rowBytes / blockBytes_;
        const unsigned block_bits = floorLog2(blocks_per_row);
        const unsigned bank_bits = floorLog2(g.banksPerRank);

        const std::uint64_t offset = bits(addr, offset_bits - 1, 0);
        const auto grank = static_cast<unsigned>(
            rank_bits ? bits(addr, offset_bits + rank_bits - 1, offset_bits)
                      : 0);
        std::uint64_t rest = addr >> (offset_bits + rank_bits);

        const std::uint64_t block_in_row =
            block_bits ? (rest & (blocks_per_row - 1)) : 0;
        rest >>= block_bits;
        c.bank = static_cast<unsigned>(rest & (g.banksPerRank - 1));
        c.row = rest >> bank_bits;

        // Channel occupies the low rank bits so consecutive blocks spread
        // over channels first, maximizing parallel gather bandwidth.
        c.channel = grank & (g.channels - 1);
        const unsigned in_channel = grank >> floorLog2(g.channels);
        c.dimm = in_channel & (g.dimmsPerChannel - 1);
        c.rank = in_channel >> floorLog2(g.dimmsPerChannel);

        const std::uint64_t byte_in_row = block_in_row * blockBytes_ + offset;
        c.column = static_cast<unsigned>(byte_in_row &
                                         ~std::uint64_t(g.burstBytes - 1));
    } else {
        // LineChannel: row | rank | dimm | bank | column | channel | offset
        const unsigned offset_bits = floorLog2(g.burstBytes);
        const unsigned chan_bits = floorLog2(g.channels);
        const unsigned col_slots = g.rowBytes / g.burstBytes;
        const unsigned col_bits = floorLog2(col_slots);
        const unsigned bank_bits = floorLog2(g.banksPerRank);
        const unsigned dimm_bits = floorLog2(g.dimmsPerChannel);

        std::uint64_t rest = addr >> offset_bits;
        c.channel = static_cast<unsigned>(rest & (g.channels - 1));
        rest >>= chan_bits;
        const unsigned col_slot =
            static_cast<unsigned>(rest & (col_slots - 1));
        c.column = col_slot * g.burstBytes;
        rest >>= col_bits;
        c.bank = static_cast<unsigned>(rest & (g.banksPerRank - 1));
        rest >>= bank_bits;
        c.dimm = static_cast<unsigned>(rest & (g.dimmsPerChannel - 1));
        rest >>= dimm_bits;
        c.rank = static_cast<unsigned>(rest & (g.ranksPerDimm - 1));
        rest >>= floorLog2(g.ranksPerDimm);
        c.row = rest;
    }

    FAFNIR_ASSERT(c.row < g.rowsPerBank, "row out of range");
    return c;
}

Addr
AddressMapper::encode(const Coordinates &c) const
{
    const Geometry &g = geometry_;
    if (policy_ == Interleave::BlockRank) {
        const unsigned offset_bits = floorLog2(blockBytes_);
        const unsigned rank_bits = floorLog2(g.totalRanks());
        const unsigned blocks_per_row = g.rowBytes / blockBytes_;
        const unsigned block_bits = floorLog2(blocks_per_row);
        const unsigned bank_bits = floorLog2(g.banksPerRank);

        const unsigned grank =
            c.channel |
            ((c.dimm | (c.rank << floorLog2(g.dimmsPerChannel)))
             << floorLog2(g.channels));

        const std::uint64_t block_in_row = c.column / blockBytes_;
        const std::uint64_t offset = c.column % blockBytes_;

        std::uint64_t rest = (c.row << bank_bits) | c.bank;
        rest = (rest << block_bits) | block_in_row;
        return (rest << (offset_bits + rank_bits)) |
               (static_cast<std::uint64_t>(grank) << offset_bits) | offset;
    }

    const unsigned offset_bits = floorLog2(g.burstBytes);
    const unsigned col_slots = g.rowBytes / g.burstBytes;

    std::uint64_t rest = c.row;
    rest = (rest << floorLog2(g.ranksPerDimm)) | c.rank;
    rest = (rest << floorLog2(g.dimmsPerChannel)) | c.dimm;
    rest = (rest << floorLog2(g.banksPerRank)) | c.bank;
    rest = (rest << floorLog2(col_slots)) | (c.column / g.burstBytes);
    rest = (rest << floorLog2(g.channels)) | c.channel;
    return rest << offset_bits;
}

std::string
toString(const Coordinates &c)
{
    std::ostringstream os;
    os << "ch" << c.channel << ".dimm" << c.dimm << ".rk" << c.rank << ".bk"
       << c.bank << ".row" << c.row << ".col" << c.column;
    return os.str();
}

} // namespace fafnir::dram
