#pragma once

#include <zlib.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../gzip/GzipReader.hpp"
#include "../index/BgzfIndex.hpp"
#include "../index/GzipIndex.hpp"
#include "../io/SharedFileReader.hpp"
#include "ChunkFetcher.hpp"
#include "DeflateChunks.hpp"
#include "GzipChunkFetcher.hpp"

namespace rapidgzip {

/**
 * Parallel gzip decompressor: plain gzip (two-stage sweep), pigz-style
 * full-flush streams, concatenated members, BGZF and imported indexes.
 * Architecture per the paper: a SharedFileReader feeds per-chunk decodes on
 * a thread pool; an adaptive prefetcher keeps the pool busy ahead of the
 * consumer; decoded chunks land in a bounded cache serving random access
 * reads. Every source of chunk geometry ends up as one table of chunk start
 * bits, decoded by GzipChunkFetcher::decodeChunkFromCheckpoint.
 *
 * Correctness is layered: chunk boundaries are validated restart points or
 * index checkpoints; the one whole-stream pass behind decompressAll() and
 * size discovery cross-checks every member's combined CRC32 and ISIZE
 * against its footer (setVerifyChecksums(false) disables this); any failure
 * in the parallel path falls back to a serial zlib decode, which is the
 * authority.
 *
 * Thread model: one consumer thread drives this object; the parallelism
 * lives in the chunk decoding underneath.
 */
class ParallelGzipReader
{
public:
    explicit ParallelGzipReader( std::unique_ptr<FileReader> fileReader,
                                 ChunkFetcherConfiguration configuration = {} ) :
        m_file( ensureSharedFileReader( std::move( fileReader ) ) ),
        m_configuration( configuration )
    {}

    /* --- whole-stream interface ------------------------------------- */

    /**
     * Decompress the whole stream in parallel, returning the number of
     * uncompressed bytes. Output is verified (unless disabled) and then
     * discarded; use read() to obtain the bytes.
     *
     * A chunk that fails to decode had a false restart boundary: it is
     * merged away and the sweep restarted, still parallel. Only silent
     * corruption (checksum mismatch) or a completely undecodable stream
     * escalates to the serial zlib decode, which is the authority and
     * throws if the file itself is broken.
     */
    [[nodiscard]] std::size_t
    decompressAll()
    {
        if ( m_parallelResultUntrusted ) {
            return serialDecompressCount();
        }
        const auto total = verifiedPass();
        return total ? *total : serialDecompressCount();
    }

    /**
     * Verified streaming decompression: run the footer-verified sweep
     * first (throwing on real corruption exactly like the sink-less
     * overload), THEN hand @p sink the bytes straight out of the decoded
     * chunks. For a stream without restart points the sweep keeps its
     * chunks (up to the cache capacity) and installs them in the fetcher,
     * so only chunks past that prefix decode a second time. When the
     * chunked state cannot serve the stream the verification sweep just
     * proved decodable (footer mismatch poisoned it, or a false restart
     * boundary could not be merged away), the serial zlib authority streams
     * it instead — the consumer never sees unverified bytes and never loses
     * a stream the serial decoder can handle.
     */
    [[nodiscard]] std::size_t
    decompressAll( const std::function<void( BufferView )>& sink )
    {
        if ( !sink ) {
            return decompressAll();
        }

        static_cast<void>( decompressAll() );  /* throws on real corruption */

        std::size_t emitted = 0;
        if ( !m_parallelResultUntrusted ) {
            try {
                seek( 0 );
                return walk( std::numeric_limits<std::size_t>::max(),
                             [&] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                   std::size_t offsetInChunk, std::size_t size ) {
                                 sink( { chunk->data.data() + offsetInChunk, size } );
                                 emitted += size;
                             } );
            } catch ( const RapidgzipError& ) {
                /* The chunked state cannot replay what the verification
                 * sweep answered serially; fall through to the authority.
                 * Bytes already emitted came from footer-verified chunks,
                 * so the serial stream below resumes AFTER them — decoding
                 * is deterministic and both paths verified the same file. */
            }
        }

        GzipReader serial( m_file->clone() );
        std::vector<std::uint8_t> buffer( 1 * MiB );
        std::size_t position = 0;
        while ( true ) {
            const auto got = serial.read( buffer.data(), buffer.size() );
            if ( got == 0 ) {
                break;
            }
            if ( position + got > emitted ) {
                const auto skip = position < emitted ? emitted - position : 0;
                sink( { buffer.data() + skip, got - skip } );
            }
            position += got;
        }
        return std::max( position, emitted );
    }

    /* --- random access interface ------------------------------------ */

    /** Total uncompressed size. Unless an index supplied the offsets, the
     * first call (or the first read()) runs the verified whole-stream pass,
     * so a footer mismatch throws ChecksumError here. */
    [[nodiscard]] std::size_t
    size()
    {
        ensureOffsetsKnown();
        return m_uncompressedOffsets.back();
    }

    void
    seek( std::size_t uncompressedOffset )
    {
        m_position = uncompressedOffset;
    }

    [[nodiscard]] std::size_t
    tell() const noexcept
    {
        return m_position;
    }

    /** Read up to @p size bytes at the current position. Returns bytes read. */
    [[nodiscard]] std::size_t
    read( std::uint8_t* buffer, std::size_t size )
    {
        return walk( size, [&buffer] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                       std::size_t offsetInChunk, std::size_t take ) {
            std::memcpy( buffer, chunk->data.data() + offsetInChunk, take );
            buffer += take;
        } );
    }

    /** Zero-copy variant of read(): lends refcounted spans straight out of
     * the decoded chunks instead of copying into a caller buffer. Each span
     * keeps its whole chunk alive, so the window stays valid past cache
     * eviction for as long as the caller holds the span. Returns bytes
     * appended (short at EOF). */
    [[nodiscard]] std::size_t
    readSpans( std::size_t size, std::vector<OwnedSpan>& spans )
    {
        return walk( size, [&spans] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                      std::size_t offsetInChunk, std::size_t take ) {
            spans.push_back( lendChunkSpan( chunk, offsetInChunk, take ) );
        } );
    }

    /* --- index interface --------------------------------------------- */

    /**
     * The seek index for this stream. When none exists yet it is built
     * first: from BGZF BC fields or full-flush chunk boundaries when the
     * stream has restart points (byte-aligned checkpoints, no windows), or
     * by the two-stage sweep for arbitrary gzip (bit-granular checkpoints
     * with compressed windows). Serialize with index::serializeIndex() /
     * index::exportGztoolIndex().
     */
    [[nodiscard]] GzipIndex
    exportIndex()
    {
        ensureOffsetsKnown();
        if ( m_indexed ) {
            return *m_index;
        }
        /* Full-flush chunking: every chunk start is a byte-aligned restart
         * point with an empty window. */
        GzipIndex index;
        index.compressedSizeBytes = m_file->size();
        index.uncompressedSizeBytes = m_uncompressedOffsets.back();
        index.checkpoints.reserve( m_chunkStartBits.size() );
        for ( std::size_t i = 0; i < m_chunkStartBits.size(); ++i ) {
            index.checkpoints.push_back( { m_chunkStartBits[i], m_uncompressedOffsets[i] } );
        }
        return index;
    }

    /** Adopt checkpoints, windows, and offsets from @p index, skipping
     * discovery: seek()/read() decode from the nearest checkpoint. */
    void
    importIndex( const GzipIndex& index )
    {
        if ( index.empty() ) {
            throw RapidgzipError( "Cannot import an empty gzip index" );
        }
        /* gztool-format imports do not record the compressed size (0 =
         * unknown); the per-chunk decode still catches a wrong file. */
        if ( ( index.compressedSizeBytes != 0 )
             && ( index.compressedSizeBytes != m_file->size() ) ) {
            throw RapidgzipError( "Gzip index does not match this file's size" );
        }
        if ( index.checkpoints.front().uncompressedOffset != 0 ) {
            throw RapidgzipError( "Gzip index must start at uncompressed offset 0" );
        }
        const auto fileBits = m_file->size() * 8;
        for ( std::size_t i = 0; i < index.checkpoints.size(); ++i ) {
            const auto& checkpoint = index.checkpoints[i];
            if ( ( checkpoint.compressedOffsetBits >= fileBits )
                 || ( ( i > 0 )
                      && ( ( checkpoint.compressedOffsetBits
                             <= index.checkpoints[i - 1].compressedOffsetBits )
                           || ( checkpoint.uncompressedOffset
                                < index.checkpoints[i - 1].uncompressedOffset ) ) )
                 || ( checkpoint.uncompressedOffset > index.uncompressedSizeBytes ) ) {
                throw RapidgzipError( "Gzip index checkpoints are inconsistent" );
            }
            /* Mid-stream checkpoints need their 32 KiB history. Byte-aligned
             * ones may be restart points (empty window); a bit-granular one
             * can never be, so a missing window there is corruption. */
            if ( ( checkpoint.compressedOffsetBits % 8 != 0 )
                 && ( checkpoint.uncompressedOffset > 0 )
                 && !index.windows.contains( checkpoint.compressedOffsetBits ) ) {
                throw RapidgzipError( "Gzip index is missing the window for a "
                                      "bit-granular checkpoint" );
            }
        }

        auto adopted = std::make_shared<GzipIndex>( index );
        adopted->compressedSizeBytes = m_file->size();
        adoptIndex( std::move( adopted ) );
    }

    /* --- configuration / introspection -------------------------------- */

    void
    setVerifyChecksums( bool verify ) noexcept
    {
        m_verifyChecksums = verify;
    }

    [[nodiscard]] const FetcherStatistics&
    fetcherStatistics() const noexcept
    {
        static const FetcherStatistics empty{};
        return m_fetcher ? m_fetcher->statistics() : empty;
    }

    [[nodiscard]] std::size_t
    chunkCount()
    {
        ensureChunkTable();
        return m_chunkStartBits.size();
    }

    /** True when seek()/read() dispatch from index checkpoints (imported,
     * BGZF-scanned, or harvested by the two-stage sweep). Triggers format
     * detection, which for BGZF adopts the BC-field index. */
    [[nodiscard]] bool
    usesIndex()
    {
        ensureChunkTable();
        return m_indexed;
    }

private:
    /** walkChunks() from the current position, which it advances. */
    template<typename Visitor>
    [[nodiscard]] std::size_t
    walk( std::size_t size, const Visitor& visit )
    {
        ensureOffsetsKnown();
        const auto produced = walkChunks( *m_fetcher, m_uncompressedOffsets, m_position, size,
                                          visit );
        m_position += produced;
        return produced;
    }

    /**
     * The one whole-stream pass, behind decompressAll() and size discovery.
     * A stream without restart points goes through the two-stage sweep
     * (decompressAllTwoStage). Otherwise every chunk is decoded in order at
     * full prefetch depth, each member is checked against its footer
     * (unless setVerifyChecksums(false)), and the chunk sizes are recorded.
     * A chunk that fails to decode had a false restart boundary: it is
     * merged away and the pass restarts, still parallel. Returns the total
     * size, or nothing when only the serial decode can answer: a footer
     * mismatch, which poisons the chunked state so read()/seek() cannot
     * serve the corrupt data, or a failed chunk with no boundary left to
     * merge. Throws InvalidGzipStreamError for a stream that ends before
     * its final Deflate block.
     */
    [[nodiscard]] std::optional<std::size_t>
    verifiedPass()
    {
        ensureChunkTable();
        if ( !m_indexed && ( m_chunkStartBits.size() <= 1 ) ) {
            try {
                return decompressAllTwoStage();
            } catch ( const RapidgzipError& ) {
                /* fall through to the single-chunk pass */
            }
        }

        ensureFetcher();
        while ( true ) {
            std::vector<std::size_t> sizes( m_fetcher->chunkCount() );
            std::size_t failedChunk = SIZE_MAX;
            bool lastChunkEndedStream = false;
            /* Per-MEMBER verification state: every concatenated member's
             * CRC32 and ISIZE are checked against ITS footer, combined
             * across chunk boundaries from the chunks' member segments. */
            MemberVerifier verifier( *m_file );

            for ( std::size_t i = 0; i < sizes.size(); ++i ) {
                ChunkFetcher::ChunkDataPtr chunk;
                try {
                    chunk = m_fetcher->get( i, ChunkFetcher::Access::WHOLE_STREAM );
                } catch ( const RapidgzipError& ) {
                    failedChunk = i;
                    break;
                }
                sizes[i] = chunk->data.size();
                lastChunkEndedStream = chunk->reachedStreamEnd;
                if ( m_verifyChecksums && !verifier.consume( *chunk ) ) {
                    m_parallelResultUntrusted = true;
                    m_uncompressedOffsets.clear();
                    m_chunkStartBits.clear();
                    m_indexed = false;
                    m_index.reset();
                    m_fetcher.reset();
                    return std::nullopt;
                }
            }

            if ( failedChunk != SIZE_MAX ) {
                if ( !mergeFalseBoundary( failedChunk ) ) {
                    return std::nullopt;
                }
                continue;
            }
            if ( !lastChunkEndedStream ) {
                throw InvalidGzipStreamError(
                    "Gzip stream ended before the final Deflate block — truncated file" );
            }
            m_uncompressedOffsets = chunkOffsets( sizes );
            return m_uncompressedOffsets.back();
        }
    }

    /**
     * Whole-stream decompression via the footer-verified two-stage sweep
     * (GzipChunkFetcher::sweepVerified). With guessed offsets the CRC32
     * check is the correctness authority, so setVerifyChecksums() does not
     * disable it here. Throws on any failure; the caller falls back. Once
     * every member verified, the harvested index is adopted so seek()/read()
     * resume from checkpoints, and the sweep's kept chunks are installed in
     * the new fetcher, so they are not decoded a second time. The sweep's
     * grid is sized to the pool (at most 2P chunks, which the cache holds),
     * floored where block finding would stop paying off.
     */
    [[nodiscard]] std::size_t
    decompressAllTwoStage()
    {
        auto sweep = GzipChunkFetcher::sweepVerified(
            *m_file, m_configuration.parallelism,
            plannedChunkBytes( m_file->size(), m_configuration, SWEEP_CHUNK_FLOOR ),
            m_configuration.checkpointSpacingBytes, ChunkFetcher::cacheCapacity( m_configuration ) );
        const auto total = sweep.index.uncompressedSizeBytes;
        adoptIndex( std::make_shared<const GzipIndex>( std::move( sweep.index ) ) );
        ensureFetcher();
        for ( std::size_t i = 0; i < sweep.keptChunks.size(); ++i ) {
            m_fetcher->install( i, std::make_shared<const DecodedChunk>(
                                       std::move( sweep.keptChunks[i] ) ) );
        }
        return total;
    }

    /** Switch to index-driven chunking: chunk starts and offsets come from
     * the checkpoints, windows from the index. */
    void
    adoptIndex( std::shared_ptr<const GzipIndex> index )
    {
        m_index = std::move( index );
        m_indexed = true;
        m_chunkStartBits.clear();
        m_chunkStartBits.reserve( m_index->checkpoints.size() );
        m_uncompressedOffsets.clear();
        m_uncompressedOffsets.reserve( m_index->checkpoints.size() + 1 );
        for ( const auto& checkpoint : m_index->checkpoints ) {
            m_chunkStartBits.push_back( checkpoint.compressedOffsetBits );
            m_uncompressedOffsets.push_back( checkpoint.uncompressedOffset );
        }
        m_uncompressedOffsets.push_back( m_index->uncompressedSizeBytes );
        /* A trustworthy index supersedes whatever chunking failed before. */
        m_parallelResultUntrusted = false;
        m_fetcher.reset();  /* rebuild lazily on the new geometry */
    }

    void
    ensureChunkTable()
    {
        if ( !m_chunkStartBits.empty() ) {
            return;
        }
        /* Restart points are free here, so chunks are sized to the pool
         * (plannedChunkBytes); a stream without any falls to the two-stage
         * sweep, which plans with a higher floor. BGZF is an index special
         * case: the BC extra fields describe every block, so the full
         * random-access index is a header scan away — no marker search, no
         * flush markers, no decoding. */
        const auto chunkBytes = plannedChunkBytes( m_file->size(), m_configuration,
                                                   RESTART_POINT_CHUNK_FLOOR );
        if ( auto bgzfIndex = index::tryBuildBgzfIndex( *m_file, chunkBytes ) ) {
            adoptIndex( std::make_shared<const GzipIndex>( std::move( *bgzfIndex ) ) );
            return;
        }
        for ( const auto& chunk : discoverChunks( *m_file, chunkBytes ) ) {
            m_chunkStartBits.push_back( chunk.compressedBegin * 8 );
        }
    }

    /**
     * Build the fetcher over the chunk table. One decoder serves every
     * source of geometry: chunk i spans [start i, start i + 1), resumed with
     * the index's window for that start when there is one. Full-flush
     * starts and BGZF members are byte-aligned and windowless, which
     * decodeChunkFromCheckpoint hands to the zlib restart-point decode.
     */
    void
    ensureFetcher()
    {
        ensureChunkTable();
        if ( m_fetcher ) {
            return;
        }
        /* The decoder runs on pool workers: it captures the immutable
         * geometry and index by shared_ptr and only uses const accessors. */
        auto decoder = [starts = std::make_shared<const std::vector<std::size_t> >( m_chunkStartBits ),
                        index = m_index] ( const FileReader& reader, std::size_t i ) {
            const auto untilBits = i + 1 < starts->size() ? ( *starts )[i + 1]
                                                          : std::numeric_limits<std::size_t>::max();
            const auto window = index ? index->windows.get( ( *starts )[i] )
                                      : std::vector<std::uint8_t>{};
            return GzipChunkFetcher::decodeChunkFromCheckpoint(
                reader, ( *starts )[i], untilBits, { window.data(), window.size() } );
        };
        m_fetcher = std::make_unique<ChunkFetcher>(
            std::shared_ptr<const FileReader>( m_file->clone().release() ), m_chunkStartBits,
            std::move( decoder ), m_configuration );
    }

    /** Offsets for seek()/read(): discovered by the verified pass unless an
     * index supplied them. Throws ChecksumError when the pass found a
     * footer mismatch, InvalidGzipStreamError when nothing decodes. */
    void
    ensureOffsetsKnown()
    {
        if ( m_uncompressedOffsets.empty() && !m_parallelResultUntrusted && !verifiedPass()
             && !m_parallelResultUntrusted ) {
            throw InvalidGzipStreamError( "The gzip stream is undecodable" );
        }
        if ( m_parallelResultUntrusted ) {
            throw ChecksumError( "Parallel chunking failed footer verification for this "
                                 "stream; use the serial GzipReader for it" );
        }
        ensureFetcher();
    }

    /**
     * Remove the chunk boundary exposed as false by @p failedChunk failing
     * to decode: merge into the predecessor (bad chunk start) or, for chunk
     * 0, into the successor (boundary truncating a member header near the
     * chunk end). Rebuilds the fetcher on the new table. Returns false when
     * there is nothing to merge: a single full-stream chunk, or index
     * checkpoints, which are not guessed restart points.
     */
    [[nodiscard]] bool
    mergeFalseBoundary( std::size_t failedChunk )
    {
        if ( m_indexed || ( m_chunkStartBits.size() <= 1 ) ) {
            return false;
        }
        m_chunkStartBits.erase( m_chunkStartBits.begin()
                                + static_cast<std::ptrdiff_t>( std::max<std::size_t>( failedChunk, 1 ) ) );
        m_uncompressedOffsets.clear();
        m_fetcher.reset();
        ensureFetcher();
        return true;
    }

    /**
     * Walks the chunks' member segments in stream order and checks every
     * member — including each member of a concatenated stream — against ITS
     * OWN footer: CRC32 (simd::crc32Combine'd across the chunks a member
     * spans; the combine has no z_off_t ceiling, so CRC verification never
     * degrades to size-only) and ISIZE. consume() returns false on any
     * mismatch or unreadable footer; the caller falls back to the
     * authoritative serial decode.
     */
    class MemberVerifier
    {
    public:
        explicit MemberVerifier( const FileReader& file ) noexcept :
            m_file( file )
        {}

        [[nodiscard]] bool
        consume( const DecodedChunk& chunk )
        {
            std::size_t segmentBegin = 0;
            for ( const auto& memberEnd : chunk.memberEnds ) {
                append( memberEnd.segmentCrc32, memberEnd.dataEndOffset - segmentBegin );
                if ( !verifyFooter( memberEnd.footerStartByte ) ) {
                    return false;
                }
                m_memberCrc = 0;
                m_memberSize = 0;
                segmentBegin = memberEnd.dataEndOffset;
            }
            append( chunk.trailingCrc32, chunk.data.size() - segmentBegin );
            return true;
        }

    private:
        void
        append( std::uint32_t segmentCrc, std::size_t length )
        {
            if ( length == 0 ) {
                return;
            }
            m_memberCrc = simd::crc32Combine( m_memberCrc, segmentCrc, length );
            m_memberSize += length;
        }

        [[nodiscard]] bool
        verifyFooter( std::size_t footerOffset ) const
        {
            /* The footer sits right after the member's final Deflate byte —
             * NOT at the end of the file, which may carry padding or
             * further members. */
            std::uint8_t footerBytes[GZIP_FOOTER_SIZE];
            if ( ( footerOffset + GZIP_FOOTER_SIZE > m_file.size() )
                 || ( m_file.pread( footerBytes, GZIP_FOOTER_SIZE, footerOffset )
                      != GZIP_FOOTER_SIZE ) ) {
                return false;
            }
            const auto footer = parseGzipFooter( { footerBytes, GZIP_FOOTER_SIZE },
                                                 GZIP_FOOTER_SIZE );
            return ( m_memberCrc == footer.crc32 )
                   && ( static_cast<std::uint32_t>( m_memberSize )
                        == footer.uncompressedSizeModulo32 );
        }

        const FileReader& m_file;
        std::uint32_t m_memberCrc{ 0 };
        std::size_t m_memberSize{ 0 };
    };

    [[nodiscard]] std::size_t
    serialDecompressCount()
    {
        GzipReader reader( m_file->clone() );
        return reader.decompressAll();
    }

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    /** Compressed start of every chunk: full-flush restart points or index
     * checkpoints; empty until the chunk table is known. */
    std::vector<std::size_t> m_chunkStartBits;
    /** chunkOffsets() of the chunk sizes; empty until they are known. */
    std::vector<std::size_t> m_uncompressedOffsets;

    /** Set when chunking is index-driven (imported, BGZF-scanned, or
     * harvested by the two-stage sweep); m_index then owns the chunk
     * geometry and the windows. Shared with the fetcher's worker threads —
     * immutable once adopted. */
    bool m_indexed{ false };
    std::shared_ptr<const GzipIndex> m_index;

    std::unique_ptr<ChunkFetcher> m_fetcher;
    std::size_t m_position{ 0 };
    bool m_verifyChecksums{ true };
    /** Set when the parallel result failed footer verification: the chunked
     * state is poisoned and only the serial path may answer. */
    bool m_parallelResultUntrusted{ false };
};

}  // namespace rapidgzip
