#include "vendor.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <bzlib.h>
#include <zlib.h>

/* The stable C ABI of libzstd and liblz4 (their runtime libraries ship
 * without headers in minimal images). Only what the benchmark calls. */
extern "C" {

std::size_t ZSTD_compress( void* dst, std::size_t dstCapacity, const void* src, std::size_t srcSize,
                           int compressionLevel );
std::size_t ZSTD_compressBound( std::size_t srcSize );
unsigned ZSTD_isError( std::size_t code );
const char* ZSTD_getErrorName( std::size_t code );
struct ZSTD_DCtx_s;
ZSTD_DCtx_s* ZSTD_createDCtx( void );
std::size_t ZSTD_freeDCtx( ZSTD_DCtx_s* dctx );
struct PerfbenchZstdIn { const void* src; std::size_t size; std::size_t pos; };
struct PerfbenchZstdOut { void* dst; std::size_t size; std::size_t pos; };
std::size_t ZSTD_decompressStream( ZSTD_DCtx_s* dctx, PerfbenchZstdOut* output, PerfbenchZstdIn* input );

struct PerfbenchLz4FrameInfo
{
    int blockSizeID;
    int blockMode;
    int contentChecksumFlag;
    int frameType;
    unsigned long long contentSize;
    unsigned dictID;
    int blockChecksumFlag;
};
struct PerfbenchLz4Preferences
{
    PerfbenchLz4FrameInfo frameInfo;
    int compressionLevel;
    unsigned autoFlush;
    unsigned favorDecSpeed;
    unsigned reserved[3];
};
struct LZ4F_dctx_s;
std::size_t LZ4F_compressFrameBound( std::size_t srcSize, const PerfbenchLz4Preferences* preferences );
std::size_t LZ4F_compressFrame( void* dst, std::size_t dstCapacity, const void* src, std::size_t srcSize,
                                const PerfbenchLz4Preferences* preferences );
unsigned LZ4F_isError( std::size_t code );
const char* LZ4F_getErrorName( std::size_t code );
std::size_t LZ4F_createDecompressionContext( LZ4F_dctx_s** dctx, unsigned version );
std::size_t LZ4F_freeDecompressionContext( LZ4F_dctx_s* dctx );
std::size_t LZ4F_decompress( LZ4F_dctx_s* dctx, void* dst, std::size_t* dstSize, const void* src,
                             std::size_t* srcSize, const void* options );

}  /* extern "C" */

namespace perfbench {
namespace {

constexpr std::size_t OUTPUT_BUFFER = 1U << 20U;

void
appendLE( Bytes& out, std::uint64_t value, unsigned bytes )
{
    for ( unsigned i = 0; i < bytes; ++i ) {
        out.push_back( static_cast<std::uint8_t>( value >> ( 8U * i ) ) );
    }
}

/** Deflate @p size bytes into @p out with an already initialized stream. */
void
deflateInto( z_stream& stream, Bytes& out, const std::uint8_t* data, std::size_t size, int flush )
{
    stream.next_in = const_cast<Bytes::value_type*>( data );
    stream.avail_in = static_cast<uInt>( size );
    while ( true ) {
        const auto before = out.size();
        out.resize( before + deflateBound( &stream, static_cast<uLong>( size ) ) + 64 );
        stream.next_out = out.data() + before;
        stream.avail_out = static_cast<uInt>( out.size() - before );
        const auto result = deflate( &stream, flush );
        out.resize( out.size() - stream.avail_out );
        if ( ( result != Z_OK ) && ( result != Z_STREAM_END ) && ( result != Z_BUF_ERROR ) ) {
            throw std::runtime_error( "deflate failed" );
        }
        if ( ( stream.avail_in == 0 ) && ( stream.avail_out != 0 ) ) {
            return;
        }
    }
}

Bytes
writeGzip( const Bytes& data, std::size_t flushInterval )
{
    z_stream stream{};
    if ( deflateInit2( &stream, 6, Z_DEFLATED, 31, 8, Z_DEFAULT_STRATEGY ) != Z_OK ) {
        throw std::runtime_error( "deflateInit2 failed" );
    }
    Bytes out;
    out.reserve( data.size() / 2 );
    for ( std::size_t offset = 0; offset < data.size(); offset += flushInterval ) {
        const auto size = std::min( flushInterval, data.size() - offset );
        const auto last = offset + size >= data.size();
        deflateInto( stream, out, data.data() + offset, size, last ? Z_FINISH : Z_FULL_FLUSH );
    }
    if ( data.empty() ) {
        deflateInto( stream, out, data.data(), 0, Z_FINISH );
    }
    deflateEnd( &stream );
    return out;
}

}  // namespace

Bytes
writeGzipPlain( const Bytes& data )
{
    return writeGzip( data, std::max<std::size_t>( data.size(), 1 ) );
}

Bytes
writeGzipFullFlush( const Bytes& data, std::size_t flushInterval )
{
    return writeGzip( data, flushInterval );
}

Bytes
writeBgzf( const Bytes& data )
{
    constexpr std::size_t BLOCK_INPUT = 65280;
    Bytes out;
    Bytes block;
    for ( std::size_t offset = 0; offset < data.size(); offset += BLOCK_INPUT ) {
        const auto size = std::min( BLOCK_INPUT, data.size() - offset );
        z_stream stream{};
        if ( deflateInit2( &stream, 6, Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY ) != Z_OK ) {
            throw std::runtime_error( "deflateInit2 failed" );
        }
        block.clear();
        deflateInto( stream, block, data.data() + offset, size, Z_FINISH );
        deflateEnd( &stream );

        const auto total = 18 + block.size() + 8;
        if ( total > 65536 ) {
            throw std::runtime_error( "BGZF block overflow" );
        }
        const std::uint8_t header[] = { 0x1F, 0x8B, 8, 4, 0, 0, 0, 0, 0, 0xFF, 6, 0, 'B', 'C', 2, 0 };
        out.insert( out.end(), header, header + sizeof( header ) );
        appendLE( out, total - 1, 2 );
        out.insert( out.end(), block.begin(), block.end() );
        appendLE( out, crc32Update( 0, data.data() + offset, size ), 4 );
        appendLE( out, size, 4 );
    }
    const std::uint8_t eof[] = { 0x1F, 0x8B, 8, 4, 0, 0, 0, 0, 0, 0xFF, 6, 0, 'B', 'C', 2, 0,
                                 0x1B, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0 };
    out.insert( out.end(), eof, eof + sizeof( eof ) );
    return out;
}

Bytes
writeZstdSeekable( const Bytes& data, std::size_t frameSize )
{
    Bytes out;
    Bytes table;
    std::uint32_t frames = 0;
    for ( std::size_t offset = 0; offset < data.size(); offset += frameSize ) {
        const auto size = std::min( frameSize, data.size() - offset );
        const auto before = out.size();
        out.resize( before + ZSTD_compressBound( size ) );
        const auto written = ZSTD_compress( out.data() + before, out.size() - before,
                                            data.data() + offset, size, 3 );
        if ( ZSTD_isError( written ) != 0 ) {
            throw std::runtime_error( std::string( "ZSTD_compress: " ) + ZSTD_getErrorName( written ) );
        }
        out.resize( before + written );
        appendLE( table, written, 4 );
        appendLE( table, size, 4 );
        ++frames;
    }
    appendLE( out, 0x184D2A5EU, 4 );
    appendLE( out, table.size() + 9, 4 );
    out.insert( out.end(), table.begin(), table.end() );
    appendLE( out, frames, 4 );
    out.push_back( 0 );  /* descriptor: no per-frame checksums */
    appendLE( out, 0x8F92EAB1U, 4 );
    return out;
}

Bytes
writeLz4Independent( const Bytes& data )
{
    PerfbenchLz4Preferences preferences{};
    preferences.frameInfo.blockSizeID = 6;  /* 1 MiB */
    preferences.frameInfo.blockMode = 1;    /* independent */
    preferences.frameInfo.contentChecksumFlag = 1;
    preferences.frameInfo.contentSize = data.size();
    preferences.frameInfo.blockChecksumFlag = 1;
    Bytes out( LZ4F_compressFrameBound( data.size(), &preferences ) );
    const auto written = LZ4F_compressFrame( out.data(), out.size(), data.data(), data.size(), &preferences );
    if ( LZ4F_isError( written ) != 0 ) {
        throw std::runtime_error( std::string( "LZ4F_compressFrame: " ) + LZ4F_getErrorName( written ) );
    }
    out.resize( written );
    return out;
}

Bytes
writeBzip2( const Bytes& data )
{
    auto capacity = static_cast<unsigned>( data.size() + data.size() / 100 + 600 );
    Bytes out( capacity );
    const auto result = BZ2_bzBuffToBuffCompress( reinterpret_cast<char*>( out.data() ), &capacity,
                                                  const_cast<char*>( reinterpret_cast<const char*>( data.data() ) ),
                                                  static_cast<unsigned>( data.size() ), 9, 0, 0 );
    if ( result != BZ_OK ) {
        throw std::runtime_error( "BZ2_bzBuffToBuffCompress failed" );
    }
    out.resize( capacity );
    return out;
}

std::uint32_t
crc32Update( std::uint32_t crc, const std::uint8_t* data, std::size_t size )
{
    while ( size > 0 ) {
        const auto step = static_cast<uInt>( std::min<std::size_t>( size, 1U << 30U ) );
        crc = static_cast<std::uint32_t>( ::crc32( crc, data, step ) );
        data += step;
        size -= step;
    }
    return crc;
}

namespace {

std::size_t
serialGzip( const Bytes& compressed, const ByteSink& sink )
{
    z_stream stream{};
    if ( inflateInit2( &stream, 31 ) != Z_OK ) {
        throw std::runtime_error( "inflateInit2 failed" );
    }
    std::unique_ptr<z_stream, int ( * )( z_stream* )> guard( &stream, inflateEnd );
    Bytes buffer( OUTPUT_BUFFER );
    stream.next_in = const_cast<Bytes::value_type*>( compressed.data() );
    stream.avail_in = static_cast<uInt>( compressed.size() );
    std::size_t total = 0;
    while ( true ) {
        stream.next_out = buffer.data();
        stream.avail_out = static_cast<uInt>( buffer.size() );
        const auto result = inflate( &stream, Z_NO_FLUSH );
        const auto produced = buffer.size() - stream.avail_out;
        if ( produced > 0 ) {
            sink( buffer.data(), produced );
            total += produced;
        }
        if ( result == Z_STREAM_END ) {
            /* Another member (BGZF, concatenated gzip) may follow. */
            if ( ( stream.avail_in >= 2 ) && ( stream.next_in[0] == 0x1F ) && ( stream.next_in[1] == 0x8B ) ) {
                inflateReset( &stream );
                continue;
            }
            return total;
        }
        if ( result != Z_OK ) {
            throw std::runtime_error( "zlib inflate failed" );
        }
    }
}

std::size_t
serialZstd( const Bytes& compressed, const ByteSink& sink )
{
    std::unique_ptr<ZSTD_DCtx_s, std::size_t ( * )( ZSTD_DCtx_s* )> context( ZSTD_createDCtx(), ZSTD_freeDCtx );
    Bytes buffer( OUTPUT_BUFFER );
    PerfbenchZstdIn input{ compressed.data(), compressed.size(), 0 };
    std::size_t total = 0;
    while ( true ) {
        PerfbenchZstdOut output{ buffer.data(), buffer.size(), 0 };
        const auto result = ZSTD_decompressStream( context.get(), &output, &input );
        if ( ZSTD_isError( result ) != 0 ) {
            throw std::runtime_error( std::string( "ZSTD_decompressStream: " ) + ZSTD_getErrorName( result ) );
        }
        if ( output.pos > 0 ) {
            sink( buffer.data(), output.pos );
            total += output.pos;
        }
        if ( ( input.pos == input.size ) && ( output.pos < output.size ) ) {
            return total;
        }
    }
}

std::size_t
serialLz4( const Bytes& compressed, const ByteSink& sink )
{
    LZ4F_dctx_s* raw = nullptr;
    if ( LZ4F_isError( LZ4F_createDecompressionContext( &raw, 100 ) ) != 0 ) {
        throw std::runtime_error( "LZ4F_createDecompressionContext failed" );
    }
    std::unique_ptr<LZ4F_dctx_s, std::size_t ( * )( LZ4F_dctx_s* )> context( raw, LZ4F_freeDecompressionContext );
    Bytes buffer( OUTPUT_BUFFER );
    std::size_t offset = 0;
    std::size_t total = 0;
    while ( true ) {
        auto produced = buffer.size();
        auto consumed = compressed.size() - offset;
        const auto result = LZ4F_decompress( context.get(), buffer.data(), &produced,
                                             compressed.data() + offset, &consumed, nullptr );
        if ( LZ4F_isError( result ) != 0 ) {
            throw std::runtime_error( std::string( "LZ4F_decompress: " ) + LZ4F_getErrorName( result ) );
        }
        offset += consumed;
        if ( produced > 0 ) {
            sink( buffer.data(), produced );
            total += produced;
        }
        if ( ( result == 0 ) && ( offset == compressed.size() ) ) {
            break;  /* frame complete, content checksum verified */
        }
        if ( ( consumed == 0 ) && ( produced == 0 ) ) {
            throw std::runtime_error( "LZ4F_decompress made no progress" );
        }
    }
    return total;
}

std::size_t
serialBzip2( const Bytes& compressed, const ByteSink& sink )
{
    Bytes buffer( OUTPUT_BUFFER );
    std::size_t offset = 0;
    std::size_t total = 0;
    while ( offset < compressed.size() ) {
        bz_stream stream{};
        if ( BZ2_bzDecompressInit( &stream, 0, 0 ) != BZ_OK ) {
            throw std::runtime_error( "BZ2_bzDecompressInit failed" );
        }
        std::unique_ptr<bz_stream, int ( * )( bz_stream* )> guard( &stream, BZ2_bzDecompressEnd );
        stream.next_in = const_cast<char*>( reinterpret_cast<const char*>( compressed.data() + offset ) );
        stream.avail_in = static_cast<unsigned>( compressed.size() - offset );
        while ( true ) {
            stream.next_out = reinterpret_cast<char*>( buffer.data() );
            stream.avail_out = static_cast<unsigned>( buffer.size() );
            const auto result = BZ2_bzDecompress( &stream );
            const auto produced = buffer.size() - stream.avail_out;
            if ( produced > 0 ) {
                sink( buffer.data(), produced );
                total += produced;
            }
            if ( result == BZ_STREAM_END ) {
                break;
            }
            if ( ( result != BZ_OK ) || ( ( produced == 0 ) && ( stream.avail_in == 0 ) ) ) {
                throw std::runtime_error( "BZ2_bzDecompress failed" );
            }
        }
        offset = compressed.size() - stream.avail_in;
    }
    return total;
}

}  // namespace

std::size_t
serialDecode( const std::string& format, const Bytes& compressed, const ByteSink& sink )
{
    if ( format == "gzip" ) {
        return serialGzip( compressed, sink );
    }
    if ( format == "zstd" ) {
        return serialZstd( compressed, sink );
    }
    if ( format == "lz4" ) {
        return serialLz4( compressed, sink );
    }
    if ( format == "bzip2" ) {
        return serialBzip2( compressed, sink );
    }
    throw std::invalid_argument( "unknown format: " + format );
}

}  // namespace perfbench
