#pragma once

#include <zlib.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../blockfinder/BlockFinder.hpp"
#include "../blockfinder/DynamicBlockFinderRapid.hpp"
#include "../blockfinder/NonCompressedBlockFinder.hpp"
#include "../common/Error.hpp"
#include "../common/ThreadPool.hpp"
#include "../common/Util.hpp"
#include "../deflate/DecodedData.hpp"
#include "../deflate/DeflateDecoder.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../index/GzipIndex.hpp"
#include "../index/IndexBuilder.hpp"
#include "../io/FileReader.hpp"
#include "../telemetry/Registry.hpp"
#include "../telemetry/Trace.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * Flush one chunk's cascade rejection tallies (paper table1) into the
 * process-wide registry — the per-stage FilterStatistics the finder already
 * collects, made live instead of bench-only. One gate check covers all
 * twelve counters; handles resolve once per process.
 */
inline void
tallyFilterStatistics( const blockfinder::FilterStatistics& statistics )
{
    if ( !telemetry::metricsEnabled() ) {
        return;
    }
    static const auto handles = [] () {
        auto& registry = telemetry::Registry::instance();
        const auto help = "Cascaded block-finder stage tallies (paper table1), summed over all chunks.";
        return std::array<telemetry::Counter*, 12>{
            &registry.counter( "rapidgzip_blockfinder_positions_tested_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_final_block_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_compression_type_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_precode_size_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_precode_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_non_optimal_precode_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_precode_encoded_data_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_distance_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_non_optimal_distance_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_literal_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_non_optimal_literal_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_valid_headers_total", help ),
        };
    }();
    const std::array<std::uint64_t, 12> values{
        statistics.positionsTested, statistics.invalidFinalBlock, statistics.invalidCompressionType,
        statistics.invalidPrecodeSize, statistics.invalidPrecodeCode, statistics.nonOptimalPrecodeCode,
        statistics.invalidPrecodeEncodedData, statistics.invalidDistanceCode,
        statistics.nonOptimalDistanceCode, statistics.invalidLiteralCode,
        statistics.nonOptimalLiteralCode, statistics.validHeaders };
    for ( std::size_t i = 0; i < values.size(); ++i ) {
        if ( values[i] != 0 ) {
            handles[i]->addUnchecked( values[i] );
        }
    }
}

/**
 * The paper's central pipeline (§3.2/§3.3): decode gzip chunks from GUESSED
 * bit offsets. Stage one runs in parallel per chunk — block-find from the
 * guess with the cascaded rapid finder (plus the non-compressed finder for
 * stored blocks), then two-stage-decode into marker/plain data until the
 * first block boundary at or past the chunk's end guess. Stage two is a
 * cheap sequential stitch — verify each chunk starts exactly where its
 * predecessor stopped (re-decoding from the known offset when the finder
 * was fooled or skipped an unfindable Fixed block) and slide the window
 * forward — while the marker substitution itself runs on the pool.
 *
 * Correctness does not rest on the finders: a surviving false positive
 * produces wrong bytes whose CRC32 cannot match the gzip footer, which the
 * caller verifies — the same layering DeflateChunks.hpp documents for the
 * full-flush fast path.
 */
class GzipChunkFetcher
{
public:
    struct ChunkResult
    {
        Error error{ Error::NONE };
        deflate::DecodedData data;
        /** Absolute bit offset of the block the decode actually started at. */
        std::size_t decodedStartBit{ 0 };
        /** Absolute bit offset of the first unconsumed block boundary. */
        std::size_t decodedEndBit{ 0 };
        bool reachedStreamEnd{ false };
        std::size_t blockCount{ 0 };
        bool startedAtStoredBlock{ false };
        /** IndexBuilder::sparseWindowOffsets( data ), when asked for. */
        std::vector<bool> referencedWindowOffsets;
        /** Empty, or totalSize() bytes allocated ahead for the resolved
         * output when the chunk is likely kept. */
        std::vector<std::uint8_t> keptBuffer;
    };

    struct MemberResult
    {
        std::size_t uncompressedSize{ 0 };
        std::uint32_t crc32{ 0 };
        /** Byte offset of the member's footer (just past the final Deflate byte). */
        std::size_t footerStartByte{ 0 };
        /** Chunks actually consumed for this member (not the guess grid,
         * which spans to the file end for concatenated members). */
        std::size_t chunkCount{ 0 };
        /** Chunks whose speculative decode was discarded for a sequential
         * re-decode (finder miss, mis-stitch, or decode failure). */
        std::size_t redecodedChunks{ 0 };
    };

    /**
     * Stage one for one chunk: find the first decodable block at or after
     * @p startBitGuess (before @p endBitGuess) and decode — windowless, with
     * 16-bit markers — until the first block boundary at or past
     * @p endBitGuess, the final block, or @p maxBytes outputs.
     *
     * Seeded-window fast path: when @p seededWindow is non-null the start is
     * not a guess but an exact checkpoint (index hit), so stage one is
     * skipped entirely — no block finding, no markers, conventional 8-bit
     * decoding from the seeded window. An empty window is a valid seed
     * (restart point).
     */
    [[nodiscard]] static ChunkResult
    decodeChunkFromGuess( const FileReader& file,
                          std::size_t startBitGuess,
                          std::size_t endBitGuess,
                          std::size_t maxBytes,
                          const BufferView* seededWindow = nullptr )
    {
        if ( seededWindow != nullptr ) {
            return decodeChunkAtOffset( file, startBitGuess, endBitGuess, maxBytes,
                                        *seededWindow );
        }
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        endBitGuess = std::min( endBitGuess, fileBits );

        ChunkResult result;
        if ( ( startBitGuess >= fileBits ) || ( endBitGuess <= startBitGuess ) ) {
            result.error = Error::BLOCK_NOT_FOUND;
            return result;
        }

        /* Zero-churn buffers: the compressed span lives in a per-thread
         * buffer reused across chunks; the DecodedData comes from the shared
         * pool, is pre-sized to the chunk's expected yield, and is reused
         * across failed candidates — steady-state decoding allocates
         * nothing. */
        static thread_local std::vector<std::uint8_t> buffer;
        auto data = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( { maxBytes, ( endBitGuess - startBitGuess ) / 8 * EXPECTED_RATIO + 64 * KiB,
                        PRESIZE_CAP } );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBitGuess / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( endBitGuess, 8 ) + margin );
            buffer.resize( bufferEnd - startByte );
            if ( file.pread( buffer.data(), buffer.size(), startByte ) != buffer.size() ) {
                result.error = Error::TRUNCATED_STREAM;
                deflate::DecodedDataPool::release( std::move( data ) );
                return result;
            }
            const BufferView view( buffer.data(), buffer.size() );
            const auto baseBit = startByte * 8;
            const auto searchEndLocal = endBitGuess - baseBit;

            blockfinder::DynamicBlockFinderRapid dynamicFinder;
            const blockfinder::NonCompressedBlockFinder storedFinder;
            /* Tally table1 cascade rejections whatever exit path the chunk takes. */
            struct StatisticsFlusher
            {
                const blockfinder::DynamicBlockFinderRapid& finder;
                ~StatisticsFlusher() { tallyFilterStatistics( finder.statistics() ); }
            } statisticsFlusher{ dynamicFinder };

            std::size_t nextDynamic{ blockfinder::NOT_FOUND };
            std::size_t nextStored{ blockfinder::NOT_FOUND };
            {
                telemetry::Span findSpan{ "pipeline", "chunk.find" };
                nextDynamic = dynamicFinder.find( view, startBitGuess - baseBit );
                nextStored = storedFinder.find( view, startBitGuess - baseBit );
            }

            bool truncatedAttempt = false;
            while ( true ) {
                const auto candidate = std::min( nextDynamic, nextStored );
                if ( ( candidate == blockfinder::NOT_FOUND ) || ( candidate >= searchEndLocal ) ) {
                    break;
                }
                /* Both finders can report the same offset; try the dynamic
                 * interpretation first, then the stored one — neither may
                 * shadow the other. */
                for ( const bool stored : { false, true } ) {
                    if ( stored ? ( candidate != nextStored ) : ( candidate != nextDynamic ) ) {
                        continue;
                    }
                    BitReader reader( view.data(), view.size() );
                    reader.seek( candidate );
                    deflate::Decoder decoder;
                    decoder.setStartAtStoredData( stored );
                    data.reset();
                    data.marked.reserve( expectedYield );
                    const auto decoded = [&] () {
                        telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
                        return decoder.decode( reader, data, searchEndLocal, maxBytes );
                    }();
                    if ( decoded.error == Error::NONE ) {
                        result.data = std::move( data );
                        result.decodedStartBit = baseBit + candidate;
                        result.decodedEndBit = baseBit + decoded.endBitOffset;
                        result.reachedStreamEnd = decoded.reachedFinalBlock;
                        result.blockCount = decoded.blockCount;
                        result.startedAtStoredBlock = stored;
                        return result;
                    }
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_candidates_rejected_total",
                                               "Block-finder candidates whose speculative decode "
                                               "failed.", 1 );
                    if ( decoded.error == Error::EXCEEDED_OUTPUT_LIMIT ) {
                        /* The output budget is per chunk, not per candidate:
                         * retrying further candidates would multiply the
                         * wasted decode work. Report terminally; the caller
                         * re-decodes sequentially without a limit. */
                        result.error = Error::EXCEEDED_OUTPUT_LIMIT;
                        deflate::DecodedDataPool::release( std::move( data ) );
                        return result;
                    }
                    if ( ( decoded.error == Error::TRUNCATED_STREAM ) && ( bufferEnd < fileSize ) ) {
                        truncatedAttempt = true;
                    }
                }
                {
                    telemetry::Span findSpan{ "pipeline", "chunk.find" };
                    if ( candidate == nextDynamic ) {
                        nextDynamic = dynamicFinder.find( view, candidate + 1 );
                    }
                    if ( candidate == nextStored ) {
                        nextStored = storedFinder.find( view, candidate + 1 );
                    }
                }
            }

            if ( truncatedAttempt && ( bufferEnd < fileSize ) ) {
                margin *= 4;  /* a candidate outran the buffer — widen and retry */
                continue;
            }
            result.error = Error::BLOCK_NOT_FOUND;
            deflate::DecodedDataPool::release( std::move( data ) );
            return result;
        }
    }

    /**
     * Sequential-path decode from an exactly known block boundary with a
     * known window (conventional 8-bit decoding throughout). Used for the
     * first chunk of a member and whenever a speculative chunk has to be
     * re-decoded.
     */
    [[nodiscard]] static ChunkResult
    decodeChunkAtOffset( const FileReader& file,
                         std::size_t startBit,
                         std::size_t untilBit,
                         std::size_t maxBytes,
                         BufferView window,
                         bool startAtStoredData = false )
    {
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        untilBit = std::min( untilBit, fileBits );
        /* A previous chunk's boundary block may have overshot PAST this
         * chunk's whole range: untilBit <= startBit then means "decode zero
         * blocks" (the loop below breaks immediately), and the buffer
         * arithmetic must not underflow. */
        untilBit = std::max( untilBit, startBit );

        ChunkResult result;
        if ( startBit >= fileBits ) {
            result.error = Error::TRUNCATED_STREAM;
            return result;
        }

        static thread_local std::vector<std::uint8_t> buffer;
        auto data = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( { maxBytes,
                        ( std::max( untilBit, startBit + 8 ) - startBit ) / 8 * EXPECTED_RATIO
                        + 64 * KiB,
                        PRESIZE_CAP } );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBit / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( untilBit, 8 ) + margin );
            buffer.resize( bufferEnd - startByte );
            if ( file.pread( buffer.data(), buffer.size(), startByte ) != buffer.size() ) {
                result.error = Error::TRUNCATED_STREAM;
                deflate::DecodedDataPool::release( std::move( data ) );
                return result;
            }
            const auto baseBit = startByte * 8;

            BitReader reader( buffer.data(), buffer.size() );
            reader.seek( startBit - baseBit );
            deflate::Decoder decoder;
            decoder.setInitialWindow( window );
            decoder.setStartAtStoredData( startAtStoredData );
            data.reset();
            if ( data.plain.empty() ) {
                data.plain.emplace_back();
            }
            data.plain.front().data.reserve( expectedYield );
            const auto decoded = [&] () {
                telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
                return decoder.decode( reader, data, untilBit - baseBit, maxBytes );
            }();
            if ( ( decoded.error == Error::TRUNCATED_STREAM ) && ( bufferEnd < fileSize ) ) {
                margin *= 4;
                continue;
            }
            result.error = decoded.error;
            result.data = std::move( data );
            result.decodedStartBit = startBit;
            result.decodedEndBit = baseBit + decoded.endBitOffset;
            result.reachedStreamEnd = decoded.reachedFinalBlock;
            result.blockCount = decoded.blockCount;
            result.startedAtStoredBlock = startAtStoredData;
            return result;
        }
    }

    /**
     * Index-driven chunk decode: resume at the checkpoint bit offset
     * @p startBits with the checkpoint's @p window and decode until the
     * block boundary at @p untilBits (the next checkpoint) or the end of the
     * stream. Handles gzip member transitions that fall inside the chunk
     * (footer + next member's header + fresh Deflate stream with an empty
     * window), so BGZF and concatenated members ride the same path. This is
     * what makes seek()/read() O(1) in decoded work: exactly one
     * inter-checkpoint span is decoded, never the prefix of the file.
     *
     * Throws InvalidGzipStreamError when the data under the checkpoint does
     * not decode — a stale or corrupt index.
     */
    [[nodiscard]] static DecodedChunk
    decodeChunkFromCheckpoint( const FileReader& file,
                               std::size_t startBits,
                               std::size_t untilBits,
                               BufferView window )
    {
        const auto fileSize = file.size();

        /* Restart-point chunks (byte-aligned, empty window, byte-aligned
         * end) — BGZF blocks, full-flush points, member starts — take the
         * zlib path: it reads the chunk's byte span ONCE and follows member
         * transitions within it, where the generic loop below would re-read
         * the remaining span per member (ruinous for BGZF's ~64 KiB
         * members). A bit-granular end boundary disqualifies: zlib would
         * decode the trailing partial block past the next checkpoint. */
        constexpr auto NO_LIMIT = std::numeric_limits<std::size_t>::max();
        if ( ( startBits % 8 == 0 ) && window.empty()
             && ( ( untilBits == NO_LIMIT ) || ( untilBits % 8 == 0 ) ) ) {
            return decodeRawDeflateChunk( file, startBits / 8,
                                          untilBits == NO_LIMIT ? fileSize : untilBits / 8 );
        }

        DecodedChunk result;

        /* One running CRC per member SEGMENT within this chunk (reset at
         * member boundaries), recorded in memberEnds so a sequential
         * consumer can verify every concatenated member's footer; the
         * whole-chunk crc32 is combined from the segments at the end. */
        std::uint32_t segmentCrc = 0;

        std::vector<std::uint8_t> memberWindow( window.begin(), window.end() );
        auto bit = startBits;
        while ( true ) {
            const BufferView windowView{ memberWindow.data(), memberWindow.size() };
            auto chunk = decodeChunkFromGuess( file, bit, untilBits,
                                               std::numeric_limits<std::size_t>::max(),
                                               &windowView );
            if ( chunk.error != Error::NONE ) {
                throw InvalidGzipStreamError(
                    "Cannot decode the gzip stream at indexed bit offset "
                    + std::to_string( bit ) + ": " + std::string( toString( chunk.error ) )
                    + " — stale or corrupt index" );
            }

            const auto before = result.data.size();
            {
                telemetry::Span stitchSpan{ "pipeline", "chunk.stitch" };
                deflate::resolveInto( chunk.data, windowView, result.data );
            }
            deflate::DecodedDataPool::release( std::move( chunk.data ) );
            segmentCrc = simd::crc32( segmentCrc, result.data.data() + before,
                                      result.data.size() - before );

            if ( !chunk.reachedStreamEnd ) {
                break;  /* stopped exactly at the next checkpoint's boundary */
            }

            /* The member ended inside this chunk: footer, then possibly
             * another member whose Deflate data still belongs to this chunk. */
            const auto footerByte = ceilDiv<std::size_t>( chunk.decodedEndBit, 8 );
            result.deflateEndOffset = footerByte;
            result.memberEnds.push_back( { result.data.size(), segmentCrc, footerByte } );
            segmentCrc = 0;
            const auto nextMember = footerByte + GZIP_FOOTER_SIZE;
            std::uint8_t magic[2];
            if ( ( nextMember + 2 > fileSize )
                 || ( file.pread( magic, 2, nextMember ) != 2 )
                 || ( magic[0] != GZIP_MAGIC_1 ) || ( magic[1] != GZIP_MAGIC_2 ) ) {
                /* No further member; trailing bytes are padding (gzip -d
                 * semantics). */
                result.reachedStreamEnd = true;
                break;
            }
            std::vector<std::uint8_t> headerBytes(
                std::min<std::size_t>( fileSize - nextMember, 64 * KiB ) );
            preadExactly( file, headerBytes.data(), headerBytes.size(), nextMember );
            const auto deflateStart =
                parseGzipHeader( { headerBytes.data(), headerBytes.size() } );
            const auto newBit = ( nextMember + deflateStart ) * 8;
            if ( newBit >= untilBits ) {
                break;  /* the next checkpoint owns the next member */
            }
            ++result.memberRestarts;
            memberWindow.clear();  /* a fresh member starts with an empty window */
            bit = newBit;
        }
        result.trailingCrc32 = segmentCrc;
        result.crc32 = combineSegmentCrcs( result );
        return result;
    }

    /**
     * Decompress one gzip member's Deflate stream in parallel from guessed
     * chunk offsets. Returns size, CRC32, and the footer position; throws
     * InvalidGzipStreamError when the stream is undecodable. The caller
     * verifies the returned CRC against the footer — that verification, not
     * the block finding, is the correctness authority.
     *
     * Stage two is split between the consumer and the pool. The consumer
     * resolves only each chunk's last 32 KiB, which is all the next chunk's
     * window needs (slideWindow). The full marker replacement and the
     * chunk's CRC32 run as tasks on the sweep's pool (resolvePiece, up to
     * `parallelism` byte ranges per chunk), at most batchLimit chunks of
     * them pending at once; the consumer folds the range CRCs in stream
     * order with simd::crc32Combine.
     *
     * When @p indexBuilder is non-null, every consumed chunk boundary is
     * recorded as a checkpoint with the propagated window — index
     * construction as a byproduct of the sweep (member-relative uncompressed
     * offsets; the caller advances the member base). With @p keptChunks as
     * well, each checkpoint harvested while keptChunks->size() < @p keepLimit
     * appends its chunk there: field for field what
     * decodeChunkFromCheckpoint() returns for that checkpoint, except
     * reachedStreamEnd, which only the caller knows (another member may
     * follow). Only kept chunks hold output; past them, memory stays bounded
     * by the in-flight batches.
     */
    [[nodiscard]] static MemberResult
    decompressMember( const FileReader& file,
                      std::size_t firstDeflateByte,
                      std::size_t parallelism,
                      std::size_t chunkSizeBytes,
                      index::IndexBuilder* indexBuilder = nullptr,
                      std::vector<DecodedChunk>* keptChunks = nullptr,
                      std::size_t keepLimit = 0 )
    {
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        const auto startBit = firstDeflateByte * 8;
        if ( startBit >= fileBits ) {
            throw InvalidGzipStreamError( "Gzip member has no Deflate data" );
        }

        const auto chunkBytes = std::max<std::size_t>( chunkSizeBytes, 128 * KiB );
        const auto chunkBits = chunkBytes * 8;
        /* The guess grid spans to the FILE end because a member's end is
         * only known after decoding it; for concatenated members the (at
         * most one batch of) speculative decodes past the footer are
         * discarded at reachedStreamEnd. */
        const auto chunkCount = ceilDiv( fileBits - startBit, chunkBits );
        /* Speculative output budget per chunk. Deflate can expand up to
         * ~1032x, but budgeting for that would let a batch of in-flight
         * 16-bit chunk buffers occupy hundreds of chunk sizes of memory;
         * ratios beyond this cap (sparse files and the like) fall back to
         * the sequential re-decode, whose single uncapped chunk matches the
         * serial path's memory profile. */
        const auto chunkOutputCap = chunkBytes * 64 + 16 * MiB;

        const auto guessBegin = [startBit, chunkBits] ( std::size_t index ) {
            return startBit + index * chunkBits;
        };
        /* The pool is declared AFTER everything its tasks reference, so its
         * joining destructor runs first; the tasks themselves capture plain
         * values (plus the caller-owned file) — never locals of this frame
         * that unwinding could destroy while workers still run. */
        ThreadPool pool( std::max<std::size_t>( 1, parallelism ) );
        /* Work the consumer would otherwise do serially runs on the worker
         * that decoded the chunk: the sparse-window scan, and — for the
         * chunks that will likely be kept, by grid position — allocating
         * (zeroing, faulting in) the kept buffer. */
        const auto keepHint = keptChunks != nullptr
                              ? keepLimit - std::min( keepLimit, keptChunks->size() ) : 0;
        const auto dispatch = [&pool, &file, startBit, chunkBits, chunkOutputCap, keepHint,
                               harvest = indexBuilder != nullptr] ( std::size_t index ) {
            return pool.submit( [&file, startBit, chunkBits, index, chunkOutputCap, keepHint, harvest] () {
                auto chunk = decodeChunkFromGuess( file, startBit + index * chunkBits,
                                                   startBit + ( index + 1 ) * chunkBits,
                                                   chunkOutputCap );
                if ( harvest && ( chunk.error == Error::NONE ) ) {
                    chunk.referencedWindowOffsets = index::IndexBuilder::sparseWindowOffsets( chunk.data );
                    if ( index < keepHint ) {
                        chunk.keptBuffer.resize( chunk.data.totalSize() );
                    }
                }
                return chunk;
            } );
        };

        /* Bounded look-ahead: chunks are consumed strictly in order, so only
         * the in-flight batch is resident at once. */
        const auto batchLimit = std::max<std::size_t>( 2 * std::max<std::size_t>( 1, parallelism ), 4 );
        std::vector<std::future<ChunkResult> > inFlight;
        std::size_t nextToDispatch = 1;  /* chunk 0 decodes on this thread, exactly */
        const auto topUp = [&] () {
            while ( ( nextToDispatch < chunkCount ) && ( inFlight.size() < batchLimit ) ) {
                inFlight.push_back( dispatch( nextToDispatch++ ) );
            }
        };
        topUp();

        MemberResult member;
        std::uint32_t crc = 0;
        std::vector<std::uint8_t> window;
        std::size_t expectedBit = startBit;
        bool reachedStreamEnd = false;

        /* Stage-two tasks, folded strictly in stream order: one job per
         * chunk, split into up to `parallelism` byte ranges of at least
         * MIN_RESOLVE_RANGE, so one large chunk does not resolve on a
         * single worker while the others idle. keptIndex names the kept
         * chunk the resolved bytes belong to. */
        constexpr auto NOT_KEPT = std::numeric_limits<std::size_t>::max();
        struct PendingResolve
        {
            std::shared_ptr<ResolveJob> job;
            std::vector<std::future<std::uint32_t> > ranges;
            std::size_t rangeBytes{ 0 };
            std::size_t size{ 0 };
            std::size_t keptIndex{ NOT_KEPT };
        };
        std::deque<PendingResolve> pendingResolves;
        const auto foldOldestResolve = [&] () {
            auto& pending = pendingResolves.front();
            std::uint32_t chunkCrc = 0;
            for ( std::size_t i = 0; i < pending.ranges.size(); ++i ) {
                const auto rangeCrc = [&] () {
                    telemetry::Span waitSpan{ "pipeline", "chunk.wait" };
                    return pending.ranges[i].get();
                }();
                const auto rangeEnd = std::min( pending.size, ( i + 1 ) * pending.rangeBytes );
                chunkCrc = simd::crc32Combine( chunkCrc, rangeCrc, rangeEnd - i * pending.rangeBytes );
            }
            crc = simd::crc32Combine( crc, chunkCrc, pending.size );
            if ( pending.keptIndex != NOT_KEPT ) {
                auto& kept = ( *keptChunks )[pending.keptIndex];
                kept.trailingCrc32 = simd::crc32Combine( kept.trailingCrc32, chunkCrc, pending.size );
                if ( kept.data.empty() ) {
                    kept.data = std::move( pending.job->output );
                } else {
                    kept.data.insert( kept.data.end(), pending.job->output.begin(),
                                      pending.job->output.end() );
                }
            }
            /* Every range task finished: nothing reads the chunk any more. */
            deflate::DecodedDataPool::release( std::move( pending.job->data ) );
            pendingResolves.pop_front();
        };
        const auto keptBegin = keptChunks != nullptr ? keptChunks->size() : 0;
        std::size_t keptIndex = NOT_KEPT;  /* kept chunk of the latest checkpoint */

        for ( std::size_t index = 0; index < chunkCount; ++index ) {
            ++member.chunkCount;  /* chunks actually consumed, not the guess grid */
            ChunkResult chunk;
            if ( index == 0 ) {
                chunk = decodeChunkAtOffset( file, startBit, guessBegin( 1 ), chunkOutputCap,
                                             { window.data(), window.size() } );
                if ( ( chunk.error == Error::EXCEEDED_OUTPUT_LIMIT ) ) {
                    chunk = decodeChunkAtOffset( file, startBit, guessBegin( 1 ),
                                                 std::numeric_limits<std::size_t>::max(),
                                                 { window.data(), window.size() } );
                }
                if ( chunk.error != Error::NONE ) {
                    throw InvalidGzipStreamError(
                        "Cannot decode the gzip stream from its start: "
                        + std::string( toString( chunk.error ) ) );
                }
            } else {
                {
                    telemetry::Span waitSpan{ "pipeline", "chunk.wait" };
                    chunk = inFlight.front().get();
                }
                inFlight.erase( inFlight.begin() );
                topUp();
                /* A stored-block start is reported at its byte-aligned LEN
                 * field; the equivalent boundary for a header at expectedBit
                 * is 3 header bits plus padding later. (The unread padding
                 * carries no data; a wrong BFINAL assumption decodes wrong
                 * bytes that the caller's CRC verification rejects.) */
                const auto storedDataBit = ceilDiv<std::size_t>( expectedBit + 3, 8 ) * 8;
                const bool stitchMatches =
                    ( chunk.decodedStartBit == expectedBit )
                    || ( chunk.startedAtStoredBlock && ( chunk.decodedStartBit == storedDataBit ) );
                if ( ( chunk.error != Error::NONE ) || !stitchMatches ) {
                    /* The finder was fooled, skipped an unfindable block, or
                     * the guess landed beyond the member: re-decode from the
                     * authoritative boundary with the propagated window. */
                    ++member.redecodedChunks;
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_redecodes_total",
                                               "Speculative chunk decodes discarded for a sequential "
                                               "re-decode (finder miss, mis-stitch, or decode failure).", 1 );
                    chunk = decodeChunkAtOffset( file, expectedBit, guessBegin( index + 1 ),
                                                 std::numeric_limits<std::size_t>::max(),
                                                 { window.data(), window.size() } );
                    if ( chunk.error != Error::NONE ) {
                        throw InvalidGzipStreamError(
                            "Cannot decode the gzip stream at bit offset "
                            + std::to_string( expectedBit ) + ": "
                            + std::string( toString( chunk.error ) ) );
                    }
                }
            }

            /* Harvest the checkpoint before the window slides: `expectedBit`
             * is the authoritative boundary this chunk starts at (for an
             * accepted stored-block candidate the real block header at
             * expectedBit decodes identically — the unread padding carries
             * no data), and `window` is exactly the history a decode
             * resuming there needs. An accepted speculative chunk's
             * surviving markers enable a sparse window (see IndexBuilder); a
             * re-decoded chunk carries no offsets. A new checkpoint starts a
             * new kept chunk while the keep budget lasts; a chunk whose
             * boundary was not harvested (zero blocks, checkpoint spacing)
             * belongs to the previous checkpoint's. */
            if ( indexBuilder != nullptr ) {
                const auto checkpointsBefore = indexBuilder->checkpointCount();
                indexBuilder->addCheckpoint( expectedBit, member.uncompressedSize,
                                             { window.data(), window.size() },
                                             chunk.referencedWindowOffsets );
                if ( indexBuilder->checkpointCount() > checkpointsBefore ) {
                    keptIndex = NOT_KEPT;
                    if ( ( keptChunks != nullptr ) && ( keptChunks->size() < keepLimit ) ) {
                        keptIndex = keptChunks->size();
                        keptChunks->emplace_back();
                    }
                }
            }

            /* Stage two, consumer side: only the window moves on here. The
             * range tasks need the window the chunk's markers refer to. */
            auto job = std::make_shared<ResolveJob>();
            {
                telemetry::Span stitchSpan{ "pipeline", "chunk.stitch" };
                if ( !chunk.data.marked.empty() ) {
                    job->window = window;
                }
                slideWindow( window, chunk.data );
            }
            PendingResolve pending;
            pending.size = chunk.data.totalSize();
            pending.keptIndex = keptIndex;
            member.uncompressedSize += pending.size;
            if ( keptIndex != NOT_KEPT ) {
                job->output = std::move( chunk.keptBuffer );
                job->output.resize( pending.size );
            }
            job->data = std::move( chunk.data );
            const auto rangeCount = std::clamp<std::size_t>( pending.size / MIN_RESOLVE_RANGE, 1,
                                                             std::max<std::size_t>( 1, parallelism ) );
            pending.rangeBytes = ceilDiv( pending.size, rangeCount );
            for ( std::size_t begin = 0; begin < pending.size; begin += pending.rangeBytes ) {
                pending.ranges.push_back( pool.submit(
                    [job, begin, end = std::min( pending.size, begin + pending.rangeBytes )] () {
                        return resolvePiece( *job, begin, end );
                    } ) );
            }
            pending.job = std::move( job );
            pendingResolves.push_back( std::move( pending ) );
            while ( pendingResolves.size() > batchLimit ) {
                foldOldestResolve();
            }

            expectedBit = chunk.decodedEndBit;
            if ( chunk.reachedStreamEnd ) {
                reachedStreamEnd = true;
                break;
            }
        }
        while ( !pendingResolves.empty() ) {
            foldOldestResolve();
        }

        if ( !reachedStreamEnd ) {
            throw InvalidGzipStreamError(
                "Gzip stream ended before the final Deflate block — truncated file" );
        }
        member.crc32 = crc;
        member.footerStartByte = ceilDiv<std::size_t>( expectedBit, 8 );

        if ( keptChunks != nullptr ) {
            /* The member's last checkpoint chunk, when kept, is where the
             * member ends: its bytes form one segment closed by the footer. */
            if ( keptIndex != NOT_KEPT ) {
                auto& last = ( *keptChunks )[keptIndex];
                last.memberEnds.push_back( { last.data.size(), last.trailingCrc32,
                                             member.footerStartByte } );
                last.trailingCrc32 = 0;
                last.deflateEndOffset = member.footerStartByte;
            }
            for ( auto i = keptBegin; i < keptChunks->size(); ++i ) {
                ( *keptChunks )[i].crc32 = combineSegmentCrcs( ( *keptChunks )[i] );
            }
        }
        return member;
    }

    struct SweepResult
    {
        GzipIndex index;
        /** Chunks of the first keptChunks.size() checkpoints, each field for
         * field what decodeChunkFromCheckpoint() returns for it. */
        std::vector<DecodedChunk> keptChunks;
    };

    /**
     * The footer-verified two-stage sweep over a whole gzip stream:
     * decompressMember() per member, every member's CRC32 and ISIZE checked
     * against its own footer, and the seek index harvested on the way. With
     * guessed offsets the footer is the correctness authority, so a
     * mismatch throws ChecksumError; an undecodable stream throws
     * InvalidGzipStreamError. The chunks of the first @p keepLimit
     * checkpoints are kept, so a reader adopting the index need not decode
     * them again.
     */
    [[nodiscard]] static SweepResult
    sweepVerified( const FileReader& file,
                   std::size_t parallelism,
                   std::size_t chunkSizeBytes,
                   std::size_t checkpointSpacingBytes,
                   std::size_t keepLimit )
    {
        const auto fileSize = file.size();
        index::IndexBuilder builder( checkpointSpacingBytes );
        SweepResult result;
        std::size_t memberStart = 0;
        while ( true ) {
            std::vector<std::uint8_t> headerBytes(
                std::min<std::size_t>( fileSize - memberStart, 64 * KiB ) );
            if ( file.pread( headerBytes.data(), headerBytes.size(), memberStart )
                 != headerBytes.size() ) {
                throw FileIoError( "Short read of gzip header" );
            }
            const auto deflateStart = parseGzipHeader( { headerBytes.data(), headerBytes.size() } );

            const auto member = decompressMember( file, memberStart + deflateStart, parallelism,
                                                  chunkSizeBytes, &builder,
                                                  &result.keptChunks, keepLimit );

            std::uint8_t footerBytes[GZIP_FOOTER_SIZE];
            if ( ( member.footerStartByte + GZIP_FOOTER_SIZE > fileSize )
                 || ( file.pread( footerBytes, GZIP_FOOTER_SIZE, member.footerStartByte )
                      != GZIP_FOOTER_SIZE ) ) {
                throw InvalidGzipStreamError( "Cannot read gzip footer" );
            }
            const auto footer = parseGzipFooter( { footerBytes, GZIP_FOOTER_SIZE },
                                                 GZIP_FOOTER_SIZE );
            if ( ( member.crc32 != footer.crc32 )
                 || ( static_cast<std::uint32_t>( member.uncompressedSize )
                      != footer.uncompressedSizeModulo32 ) ) {
                throw ChecksumError( "Two-stage parallel decode does not match the gzip footer" );
            }
            builder.finishMember( member.uncompressedSize );

            /* Another member may follow; anything else is trailing padding,
             * ignored like `gzip -d`. */
            const auto next = member.footerStartByte + GZIP_FOOTER_SIZE;
            std::uint8_t magic[2];
            if ( ( next + 2 <= fileSize ) && ( file.pread( magic, 2, next ) == 2 )
                 && ( magic[0] == GZIP_MAGIC_1 ) && ( magic[1] == GZIP_MAGIC_2 ) ) {
                memberStart = next;
                continue;
            }
            result.index = builder.build( fileSize );
            /* The last checkpoint's chunk runs to the stream end. */
            if ( !result.keptChunks.empty()
                 && ( result.keptChunks.size() == result.index.checkpoints.size() ) ) {
                result.keptChunks.back().reachedStreamEnd = true;
            }
            return result;
        }
    }

private:
    /** One sweep chunk's stage two, shared by the range tasks that
     * resolve it: the stage-one output, the window its markers refer to,
     * and — when the chunk is kept — the buffer the tasks fill. */
    struct ResolveJob
    {
        deflate::DecodedData data;
        std::vector<std::uint8_t> window;
        std::vector<std::uint8_t> output;
    };

    /** Write the resolved bytes [begin, end) of the stage-one output
     * @p data, whose markers refer to @p window, to @p output. */
    static void
    resolveRange( const deflate::DecodedData& data,
                  VectorView<std::uint8_t> window,
                  std::size_t begin,
                  std::size_t end,
                  std::uint8_t* output )
    {
        if ( begin < data.marked.size() ) {
            const auto count = std::min( end, data.marked.size() ) - begin;
            deflate::replaceMarkers( { data.marked.data() + begin, count }, window, output );
            output += count;
            begin += count;
        }
        auto segmentBegin = data.marked.size();
        for ( const auto& segment : data.plain ) {
            if ( begin >= end ) {
                break;
            }
            const auto segmentEnd = segmentBegin + segment.data.size();
            if ( segmentEnd > begin ) {
                const auto count = std::min( end, segmentEnd ) - begin;
                std::memcpy( output, segment.data.data() + ( begin - segmentBegin ), count );
                output += count;
                begin += count;
            }
            segmentBegin = segmentEnd;
        }
    }

    /**
     * Stage two for the bytes [begin, end) of one sweep chunk, run on a
     * pool worker: resolve them block by block and CRC32 each block while
     * it is cache-hot, into the kept buffer when there is one. Returns the
     * range's CRC32.
     */
    [[nodiscard]] static std::uint32_t
    resolvePiece( ResolveJob& job, std::size_t begin, std::size_t end )
    {
        telemetry::Span stitchSpan{ "pipeline", "chunk.stitch" };
        constexpr std::size_t BLOCK = 128 * KiB;
        static thread_local std::vector<std::uint8_t> scratch( BLOCK );
        const bool keep = !job.output.empty();
        std::uint32_t crc = 0;
        for ( auto blockBegin = begin; blockBegin < end; blockBegin += BLOCK ) {
            const auto blockEnd = std::min( end, blockBegin + BLOCK );
            auto* const output = keep ? job.output.data() + blockBegin : scratch.data();
            resolveRange( job.data, job.window, blockBegin, blockEnd, output );
            crc = simd::crc32( crc, output, blockEnd - blockBegin );
        }
        return crc;
    }

    /**
     * Slide @p window past the chunk @p data: keep the last WINDOW_SIZE
     * bytes of ( window ++ resolved data ), resolving only the markers that
     * land in that tail — all the next chunk needs. The range tasks resolve
     * the whole chunk on the pool.
     */
    static void
    slideWindow( std::vector<std::uint8_t>& window, const deflate::DecodedData& data )
    {
        const auto total = data.totalSize();
        if ( total == 0 ) {
            return;
        }
        const auto tail = std::min( total, deflate::WINDOW_SIZE );
        const auto carried = std::min( window.size(), deflate::WINDOW_SIZE - tail );
        std::vector<std::uint8_t> next( carried + tail );
        if ( carried > 0 ) {
            std::memcpy( next.data(), window.data() + ( window.size() - carried ), carried );
        }
        resolveRange( data, window, total - tail, total, next.data() + carried );
        window.swap( next );
    }

    /* Covers the boundary block overshooting the end guess in one read for
     * typical block sizes; the TRUNCATED retry loop (margin *= 4) widens it
     * for the rare longer block, so a small start avoids per-chunk read
     * amplification. */
    static constexpr std::size_t INITIAL_DECODE_OVERSHOOT = 256 * KiB;

    /* Smallest byte range one stage-two task resolves: below it the task
     * hand-off costs more than the parallel resolve saves. */
    static constexpr std::size_t MIN_RESOLVE_RANGE = 1 * MiB;

    /* Pre-size heuristic for the decode buffers: gzip on text compresses
     * ~3-4x, so reserving 4x the compressed span usually avoids every
     * mid-decode reallocation; the cap bounds the speculative memory of a
     * pathological ratio chunk (the buffer still grows on demand past it). */
    static constexpr std::size_t EXPECTED_RATIO = 4;
    static constexpr std::size_t PRESIZE_CAP = 32 * MiB;
};

}  // namespace rapidgzip
