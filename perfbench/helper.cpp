/**
 * perfbench-helper: the compiled half of the end-to-end benchmark.
 *
 *   gen     --corpus C --size N --seed S --format F --out PATH
 *   index   --path P [--chunk-bytes N]           write <P>.rgzidx via the library
 *   decode  --path P --format F --mode rg|serial --size N --crc C
 *           [--sidecar] [--trace OUT] [--count-io]
 *   markers --path P                             16-bit marker share of the chunk grid
 *   adopt   --path P                             time sidecar adoption
 *   load    ...                                  open-loop HTTP generator (loadgen.cpp)
 *   host                                         build and dispatch facts
 *
 * Every command prints one JSON object on stdout. One `decode` is one timed
 * whole-file decode in a fresh process, the way one rapidgzip-cat run is.
 */

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <core/GzipChunkFetcher.hpp>
#include <formats/Formats.hpp>
#include <formats/Sidecar.hpp>
#include <gzip/GzipHeader.hpp>
#include <io/StandardFileReader.hpp>
#include <simd/Dispatch.hpp>
#include <telemetry/Trace.hpp>

#include "corpus.hpp"
#include "loadgen.hpp"
#include "vendor.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince( Clock::time_point start, Clock::time_point end = Clock::now() )
{
    return std::chrono::duration<double>( end - start ).count();
}

/** --key value pairs; a flag without value maps to "1". */
std::map<std::string, std::string>
parseOptions( int argc, char** argv, int first )
{
    std::map<std::string, std::string> options;
    for ( int i = first; i < argc; ++i ) {
        std::string key = argv[i];
        if ( key.rfind( "--", 0 ) != 0 ) {
            throw std::invalid_argument( "unexpected argument: " + key );
        }
        key = key.substr( 2 );
        if ( ( i + 1 < argc ) && ( std::string( argv[i + 1] ).rfind( "--", 0 ) != 0 ) ) {
            options[key] = argv[++i];
        } else {
            options[key] = "1";
        }
    }
    return options;
}

const std::string&
require( const std::map<std::string, std::string>& options, const std::string& key )
{
    const auto match = options.find( key );
    if ( match == options.end() ) {
        throw std::invalid_argument( "missing --" + key );
    }
    return match->second;
}

perfbench::Bytes
readFile( const std::string& path )
{
    std::ifstream file( path, std::ios::binary | std::ios::ate );
    if ( !file ) {
        throw std::runtime_error( "cannot open " + path );
    }
    perfbench::Bytes data( static_cast<std::size_t>( file.tellg() ) );
    file.seekg( 0 );
    file.read( reinterpret_cast<char*>( data.data() ), static_cast<std::streamsize>( data.size() ) );
    if ( !file ) {
        throw std::runtime_error( "cannot read " + path );
    }
    return data;
}

void
writeFile( const std::string& path, const perfbench::Bytes& data )
{
    std::ofstream file( path, std::ios::binary | std::ios::trunc );
    file.write( reinterpret_cast<const char*>( data.data() ), static_cast<std::streamsize>( data.size() ) );
    if ( !file ) {
        throw std::runtime_error( "cannot write " + path );
    }
}

int
commandGen( const std::map<std::string, std::string>& options )
{
    const auto data = perfbench::makeCorpus( require( options, "corpus" ),
                                             std::stoull( require( options, "size" ) ),
                                             std::stoull( require( options, "seed" ) ) );
    const auto& format = require( options, "format" );
    perfbench::Bytes archive;
    if ( format == "gzip" ) {
        archive = perfbench::writeGzipPlain( data );
    } else if ( format == "fullflush" ) {
        archive = perfbench::writeGzipFullFlush( data, 512 * 1024 );
    } else if ( format == "bgzf" ) {
        archive = perfbench::writeBgzf( data );
    } else if ( format == "zstd" ) {
        archive = perfbench::writeZstdSeekable( data, 1024 * 1024 );
    } else if ( format == "lz4" ) {
        archive = perfbench::writeLz4Independent( data );
    } else if ( format == "bzip2" ) {
        archive = perfbench::writeBzip2( data );
    } else {
        throw std::invalid_argument( "unknown archive format: " + format );
    }
    writeFile( require( options, "out" ), archive );
    std::printf( "{\"size\":%zu,\"crc32\":%u,\"compressed_bytes\":%zu}\n", data.size(),
                 perfbench::crc32Update( 0, data.data(), data.size() ), archive.size() );
    return 0;
}

int
commandIndex( const std::map<std::string, std::string>& options )
{
    const auto& path = require( options, "path" );
    rapidgzip::ChunkFetcherConfiguration configuration;
    if ( options.count( "chunk-bytes" ) != 0 ) {
        configuration.chunkSizeBytes = std::stoull( options.at( "chunk-bytes" ) );
    }
    auto decompressor = rapidgzip::formats::makeDecompressor(
        std::make_unique<rapidgzip::StandardFileReader>( path ), configuration );
    rapidgzip::formats::writeSidecarIndex( *decompressor, path );
    const auto sidecar = readFile( rapidgzip::formats::sidecarPathFor( path ) );
    std::printf( "{\"index_bytes\":%zu,\"checkpoints\":%zu}\n", sidecar.size(),
                 decompressor->seekPoints().size() );
    return 0;
}

int
commandAdopt( const std::map<std::string, std::string>& options )
{
    const auto& path = require( options, "path" );
    auto decompressor = rapidgzip::formats::makeDecompressor(
        std::make_unique<rapidgzip::StandardFileReader>( path ) );
    const auto start = Clock::now();
    const auto adopted = rapidgzip::formats::trySidecarAdoption( *decompressor, path );
    const auto seconds = secondsSince( start );
    std::printf( "{\"adopted\":%s,\"import_s\":%.9f}\n", adopted ? "true" : "false", seconds );
    return adopted ? 0 : 1;
}

/** pread-counting FileReader decorator: bytes, calls and time spent inside
 * the wrapped reader, shared by every clone. */
struct IoStatistics
{
    std::atomic<std::uint64_t> bytes{ 0 };
    std::atomic<std::uint64_t> calls{ 0 };
    std::atomic<std::uint64_t> nanoseconds{ 0 };

    void
    record( std::size_t size, Clock::time_point start )
    {
        bytes += size;
        ++calls;
        nanoseconds += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>( Clock::now() - start ).count() );
    }
};

class CountingFileReader final : public rapidgzip::FileReader
{
public:
    CountingFileReader( std::unique_ptr<rapidgzip::FileReader> inner,
                        std::shared_ptr<IoStatistics> statistics ) :
        m_inner( std::move( inner ) ),
        m_statistics( std::move( statistics ) )
    {}

    [[nodiscard]] std::size_t
    read( void* buffer, std::size_t size ) override
    {
        const auto start = Clock::now();
        const auto got = m_inner->read( buffer, size );
        m_statistics->record( got, start );
        return got;
    }

    [[nodiscard]] std::size_t
    pread( void* buffer, std::size_t size, std::size_t offset ) const override
    {
        const auto start = Clock::now();
        const auto got = m_inner->pread( buffer, size, offset );
        m_statistics->record( got, start );
        return got;
    }

    void seek( std::size_t offset ) override { m_inner->seek( offset ); }
    [[nodiscard]] std::size_t tell() const override { return m_inner->tell(); }
    [[nodiscard]] std::size_t size() const override { return m_inner->size(); }
    [[nodiscard]] bool supportsParallelPread() const noexcept override
    {
        return m_inner->supportsParallelPread();
    }

    [[nodiscard]] std::unique_ptr<rapidgzip::FileReader>
    clone() const override
    {
        return std::make_unique<CountingFileReader>( m_inner->clone(), m_statistics );
    }

private:
    std::unique_ptr<rapidgzip::FileReader> m_inner;
    std::shared_ptr<IoStatistics> m_statistics;
};

/** The verifying sink: size plus zlib CRC32 against the generator's reference. */
struct VerifyingSink
{
    Clock::time_point firstCall{};
    Clock::time_point lastReturn{};
    std::size_t bytes{ 0 };
    std::size_t calls{ 0 };
    std::uint32_t crc{ 0 };
    double seconds{ 0 };

    void
    consume( const std::uint8_t* data, std::size_t size )
    {
        const rapidgzip::telemetry::Span span{ "bench", "sink" };
        const auto start = Clock::now();
        if ( calls++ == 0 ) {
            firstCall = start;
        }
        crc = perfbench::crc32Update( crc, data, size );
        bytes += size;
        lastReturn = Clock::now();
        seconds += secondsSince( start, lastReturn );
    }
};

const char* const COUNTERS[] = {
    "rapidgzip_chunk_redecodes_total",
    "rapidgzip_prefetch_issued_total",
    "rapidgzip_prefetch_wasted_total",
    "rapidgzip_prefetch_consumed_total",
    "rapidgzip_frames_decoded_total",
    "rapidgzip_chunk_on_demand_decodes_total",
    "rapidgzip_chunk_cache_hits_total",
    "rapidgzip_chunk_decode_failures_total",
};

int
commandDecode( const std::map<std::string, std::string>& options )
{
    const auto& path = require( options, "path" );
    const auto& format = require( options, "format" );
    const auto expectedSize = std::stoull( require( options, "size" ) );
    const auto expectedCrc = static_cast<std::uint32_t>( std::stoul( require( options, "crc" ) ) );
    const bool serial = require( options, "mode" ) == "serial";
    const bool traced = options.count( "trace" ) != 0;
    if ( traced ) {
        rapidgzip::telemetry::setMetricsEnabled( true );
        rapidgzip::telemetry::setTraceEnabled( true );
    }

    VerifyingSink sink;
    std::string error;
    double setupSeconds = 0;
    double importSeconds = 0;
    double firstByteSeconds = 0;
    std::size_t chunks = 0;
    const auto io = std::make_shared<IoStatistics>();
    const auto open = Clock::now();
    Clock::time_point decompressCall{};
    try {
        if ( serial ) {
            const auto compressed = readFile( path );
            setupSeconds = secondsSince( open );
            decompressCall = Clock::now();
            (void)perfbench::serialDecode( format, compressed, [&sink] ( const std::uint8_t* data, std::size_t size ) {
                sink.consume( data, size );
            } );
        } else {
            std::unique_ptr<rapidgzip::FileReader> file =
                std::make_unique<rapidgzip::StandardFileReader>( path );
            if ( options.count( "count-io" ) != 0 ) {
                file = std::make_unique<CountingFileReader>( std::move( file ), io );
            }
            std::unique_ptr<rapidgzip::formats::Decompressor> decompressor;
            {
                const rapidgzip::telemetry::Span span{ "bench", "bench.setup" };
                decompressor = rapidgzip::formats::makeDecompressor( std::move( file ) );
                if ( options.count( "sidecar" ) != 0 ) {
                    const auto start = Clock::now();
                    if ( !rapidgzip::formats::trySidecarAdoption( *decompressor, path ) ) {
                        throw std::runtime_error( "sidecar index was not adopted" );
                    }
                    importSeconds = secondsSince( start );
                }
            }
            decompressCall = Clock::now();
            setupSeconds = secondsSince( open, decompressCall );
            {
                const rapidgzip::telemetry::Span span{ "bench", "bench.decompress" };
                (void)decompressor->decompress( [&sink] ( rapidgzip::BufferView view ) {
                    sink.consume( view.data(), view.size() );
                } );
            }
            if ( auto* gzip = dynamic_cast<rapidgzip::formats::GzipDecompressor*>( decompressor.get() ) ) {
                chunks = gzip->reader().chunkCount();
            } else {
                chunks = decompressor->seekPoints().size();
            }
            decompressor.reset();  /* joins the pools: the trace is quiescent from here */
        }
    } catch ( const std::exception& exception ) {
        error = exception.what();
    }
    const auto done = sink.calls > 0 ? sink.lastReturn : Clock::now();
    if ( sink.calls > 0 ) {
        firstByteSeconds = secondsSince( decompressCall, sink.firstCall );
    }
    if ( error.empty() && ( ( sink.bytes != expectedSize ) || ( sink.crc != expectedCrc ) ) ) {
        error = "output mismatch: " + std::to_string( sink.bytes ) + " bytes, crc " + std::to_string( sink.crc );
    }

    rusage usage{};
    getrusage( RUSAGE_SELF, &usage );
    const auto cpuSeconds = static_cast<double>( usage.ru_utime.tv_sec + usage.ru_stime.tv_sec )
                            + static_cast<double>( usage.ru_utime.tv_usec + usage.ru_stime.tv_usec ) / 1e6;

    std::ostringstream counters;
    std::uint64_t droppedSpans = 0;
    if ( traced ) {
        bool first = true;
        for ( const auto* name : COUNTERS ) {
            counters << ( first ? "" : "," ) << '"' << name << "\":"
                     << rapidgzip::telemetry::Registry::instance().counter( name ).total();
            first = false;
        }
        droppedSpans = rapidgzip::telemetry::TraceCollector::instance().totalDropped();
        if ( !rapidgzip::telemetry::writeTraceFile( options.at( "trace" ) ) ) {
            error = "cannot write trace";
        }
    }

    std::string escaped;
    for ( const auto c : error ) {
        escaped += ( c == '"' ) || ( c == '\\' ) ? '\'' : c;
    }
    std::printf( "{\"ok\":%s,\"error\":\"%s\",\"bytes\":%zu,\"setup_s\":%.9f,\"import_s\":%.9f,"
                 "\"first_byte_s\":%.9f,\"wall_s\":%.9f,\"cpu_s\":%.6f,\"maxrss_kib\":%ld,"
                 "\"sink_s\":%.9f,\"sink_calls\":%zu,\"pread_bytes\":%llu,\"pread_calls\":%llu,"
                 "\"pread_s\":%.9f,\"chunks\":%zu,\"dropped_spans\":%llu,\"counters\":{%s}}\n",
                 error.empty() ? "true" : "false", escaped.c_str(), sink.bytes, setupSeconds, importSeconds,
                 firstByteSeconds, secondsSince( open, done ), cpuSeconds, usage.ru_maxrss, sink.seconds,
                 sink.calls, static_cast<unsigned long long>( io->bytes.load() ),
                 static_cast<unsigned long long>( io->calls.load() ),
                 static_cast<double>( io->nanoseconds.load() ) / 1e9, chunks,
                 static_cast<unsigned long long>( droppedSpans ), counters.str().c_str() );
    return error.empty() ? 0 : 1;
}

/** Replay GzipChunkFetcher::decodeChunkFromGuess over the default chunk grid
 * of a single-member gzip file and count the output held as 16-bit markers. */
int
commandMarkers( const std::map<std::string, std::string>& options )
{
    const rapidgzip::StandardFileReader file( require( options, "path" ) );
    std::vector<std::uint8_t> header( std::min<std::size_t>( file.size(), 64 * 1024 ) );
    rapidgzip::preadExactly( file, header.data(), header.size(), 0 );
    const auto startBit = rapidgzip::parseGzipHeader( { header.data(), header.size() } ) * 8;
    const auto chunkBytes = rapidgzip::ChunkFetcherConfiguration{}.chunkSizeBytes;
    const auto chunkBits = chunkBytes * 8;
    std::size_t marked = 0;
    std::size_t total = 0;
    std::size_t chunks = 0;
    for ( auto begin = startBit; begin < file.size() * 8; begin += chunkBits ) {
        auto result = rapidgzip::GzipChunkFetcher::decodeChunkFromGuess(
            file, begin, begin + chunkBits, chunkBytes * 64 + 16 * 1024 * 1024 );
        if ( result.error == rapidgzip::Error::NONE ) {
            marked += result.data.marked.size();
            total += result.data.totalSize();
            ++chunks;
        }
    }
    std::printf( "{\"marked\":%zu,\"total\":%zu,\"chunks\":%zu}\n", marked, total, chunks );
    return 0;
}

int
commandHost()
{
    std::printf( "{\"simd\":\"%s\",\"simd_detected\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                 rapidgzip::simd::toString( rapidgzip::simd::activeLevel() ),
                 rapidgzip::simd::toString( rapidgzip::simd::detectedLevel() ),
#if defined( __clang__ )
                 "clang " __clang_version__,
#elif defined( __GNUC__ )
                 "gcc " __VERSION__,
#else
                 "unknown",
#endif
                 PERFBENCH_BUILD_TYPE );
    return 0;
}

}  // namespace

int
main( int argc, char** argv )
{
    if ( argc < 2 ) {
        std::fprintf( stderr, "usage: %s gen|index|decode|markers|adopt|load|host [--options]\n", argv[0] );
        return 2;
    }
    const std::string command = argv[1];
    try {
        if ( command == "load" ) {
            return perfbench::runLoad( argc - 2, argv + 2 );
        }
        const auto options = parseOptions( argc, argv, 2 );
        if ( command == "gen" ) {
            return commandGen( options );
        }
        if ( command == "index" ) {
            return commandIndex( options );
        }
        if ( command == "decode" ) {
            return commandDecode( options );
        }
        if ( command == "markers" ) {
            return commandMarkers( options );
        }
        if ( command == "adopt" ) {
            return commandAdopt( options );
        }
        if ( command == "host" ) {
            return commandHost();
        }
    } catch ( const std::exception& exception ) {
        std::fprintf( stderr, "perfbench-helper %s: %s\n", command.c_str(), exception.what() );
        return 2;
    }
    std::fprintf( stderr, "unknown command: %s\n", command.c_str() );
    return 2;
}
