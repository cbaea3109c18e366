#pragma once

namespace perfbench {

/** `perfbench-helper load ...`: drive a running rapidgzip-serve open-loop
 * (or with whole-archive GETs) and print one JSON object. */
int runLoad( int argc, char** argv );

}  // namespace perfbench
