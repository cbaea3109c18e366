#pragma once

/* Archive writers and serial reference decoders on the vendor libraries
 * (zlib, libzstd, liblz4, libbz2). Declared without any library header so
 * the benchmark's inputs and its serial baseline never depend on src/. */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Bytes = std::vector<std::uint8_t>;
using ByteSink = std::function<void( const std::uint8_t*, std::size_t )>;

/** Single-member gzip from zlib at level 6, no flush points. */
Bytes writeGzipPlain( const Bytes& data );
/** pigz-style gzip: one member, Z_FULL_FLUSH every @p flushInterval bytes. */
Bytes writeGzipFullFlush( const Bytes& data, std::size_t flushInterval );
/** BGZF: gzip members of at most 65280 input bytes with BC extra fields. */
Bytes writeBgzf( const Bytes& data );
/** zstd seekable format: level-3 frames of @p frameSize plus the seek table. */
Bytes writeZstdSeekable( const Bytes& data, std::size_t frameSize );
/** LZ4 frame with independent 1 MiB blocks, content size and checksums. */
Bytes writeLz4Independent( const Bytes& data );
/** bzip2 at block size 900k. */
Bytes writeBzip2( const Bytes& data );

/** Serial whole-file decode with the vendor library, streamed through
 * @p sink. @p format is one of gzip, zstd, lz4, bzip2. Returns bytes
 * emitted; throws std::runtime_error on any decoder error. */
std::size_t serialDecode( const std::string& format, const Bytes& compressed, const ByteSink& sink );

/** zlib's CRC32, the benchmark's independent checksum oracle. */
std::uint32_t crc32Update( std::uint32_t crc, const std::uint8_t* data, std::size_t size );

}  // namespace perfbench
