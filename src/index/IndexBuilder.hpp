#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "../common/Util.hpp"
#include "../deflate/DecodedData.hpp"
#include "../deflate/definitions.hpp"
#include "GzipIndex.hpp"

namespace rapidgzip::index {

/**
 * Harvests checkpoints and windows from the two-stage chunk sweep
 * (GzipChunkFetcher::decompressMember): the sweep already visits every chunk
 * boundary with the exact bit offset and the propagated 32 KiB window in
 * hand, so index construction is a byproduct of the first decompression
 * rather than a second pass — the property the paper's "first read builds
 * the index" workflow depends on.
 *
 * Offsets: bit offsets are absolute in the compressed file (the sweep works
 * in absolute bits). Uncompressed offsets arrive member-relative from the
 * sweep; the caller advances the member base between members via
 * finishMember().
 *
 * Sparse windows: when the accepted chunk decode was the speculative marker
 * decode AND the chunk produced at least a full window of output, the
 * chunk's surviving markers name exactly the window bytes any decode
 * starting at this checkpoint can ever reference (same bits, same
 * back-references; past 32 KiB of output the window is out of reach). Only
 * then is the window stored sparsely — a re-decoded (plain) chunk leaves no
 * marker trace, and a short chunk lets later input reach this window, so
 * both keep the full window.
 */
class IndexBuilder
{
public:
    /** @p checkpointSpacingBytes: minimum uncompressed distance between kept
     * checkpoints; 0 keeps every chunk boundary the sweep visits. Member
     * starts are always kept (they are the only restart points an empty
     * window can resume at). */
    explicit IndexBuilder( std::size_t checkpointSpacingBytes = 0 ) :
        m_spacing( checkpointSpacingBytes )
    {}

    /**
     * Record the chunk boundary at absolute @p compressedOffsetBits whose
     * decode starts at member-relative uncompressed offset
     * @p uncompressedOffsetInMember with @p window as preceding history.
     * @p referencedOffsets is sparseWindowOffsets() of the chunk's stage-one
     * output when the speculative decode was accepted; empty keeps the full
     * window.
     */
    void
    addCheckpoint( std::size_t compressedOffsetBits,
                   std::size_t uncompressedOffsetInMember,
                   BufferView window,
                   const std::vector<bool>& referencedOffsets = {} )
    {
        const auto uncompressedOffset = m_uncompressedBase + uncompressedOffsetInMember;
        if ( !m_index.checkpoints.empty() ) {
            const auto& last = m_index.checkpoints.back();
            if ( compressedOffsetBits <= last.compressedOffsetBits ) {
                return;  /* zero-block chunk: boundary did not advance */
            }
            /* Spacing applies to window-carrying checkpoints only; member
             * starts (empty window) are always kept. */
            if ( !window.empty() && ( m_spacing > 0 )
                 && ( uncompressedOffset < last.uncompressedOffset + m_spacing ) ) {
                return;
            }
        }

        m_index.checkpoints.push_back( { compressedOffsetBits, uncompressedOffset } );
        if ( window.empty() ) {
            return;
        }
        if ( !referencedOffsets.empty() ) {
            m_index.windows.insertSparse( compressedOffsetBits, window, referencedOffsets );
        } else {
            m_index.windows.insert( compressedOffsetBits, window );
        }
    }

    /** A member of @p uncompressedSize bytes is complete; later checkpoints
     * belong to the next member. */
    void
    finishMember( std::size_t uncompressedSize )
    {
        m_uncompressedBase += uncompressedSize;
    }

    [[nodiscard]] std::size_t
    checkpointCount() const noexcept
    {
        return m_index.checkpoints.size();
    }

    /** Finalize: stamp the stream sizes and move the index out. */
    [[nodiscard]] GzipIndex
    build( std::size_t compressedSizeBytes )
    {
        m_index.compressedSizeBytes = compressedSizeBytes;
        m_index.uncompressedSizeBytes = m_uncompressedBase;
        return std::move( m_index );
    }

    /**
     * Which full-window offsets (0 = oldest byte) the markers of the
     * stage-one output @p data reference, or empty when @p data cannot
     * bound its window: no markers, or less than a window of output.
     * Scans only the first WINDOW_SIZE symbols, and that is exact: a marker
     * is created only where a match reaches behind the chunk start, which
     * an output position at or past WINDOW_SIZE cannot do, so every later
     * marker is a copy of an earlier one.
     */
    [[nodiscard]] static std::vector<bool>
    sparseWindowOffsets( const deflate::DecodedData& data )
    {
        if ( data.marked.empty() || ( data.totalSize() < deflate::WINDOW_SIZE ) ) {
            return {};
        }
        /* Branch-free byte table: a marker ORs 1 into its window slot, a
         * literal ORs 0 into slot (symbol & 0x7FFF). On marker-dense chunks
         * this takes half the time of testing each symbol into a
         * vector<bool>. */
        static_assert( deflate::MARKER_BASE == 0x8000U, "the sign bit marks a marker" );
        static_assert( deflate::WINDOW_SIZE == 0x8000U, "the low 15 bits are the window offset" );
        std::array<std::uint8_t, deflate::WINDOW_SIZE> hit{};
        const auto scanned = std::min( data.marked.size(), deflate::WINDOW_SIZE );
        for ( std::size_t i = 0; i < scanned; ++i ) {
            const auto symbol = data.marked[i];
            hit[symbol & ( deflate::WINDOW_SIZE - 1U )] |= static_cast<std::uint8_t>( symbol >> 15U );
        }
        std::vector<bool> referenced( deflate::WINDOW_SIZE, false );
        for ( std::size_t i = 0; i < hit.size(); ++i ) {
            referenced[i] = hit[i] != 0;
        }
        return referenced;
    }

private:
    GzipIndex m_index;
    std::size_t m_spacing;
    std::size_t m_uncompressedBase{ 0 };
};

}  // namespace rapidgzip::index
