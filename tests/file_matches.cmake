# Fails unless the file FILE contains a match for the regex PATTERN.
# Usage: cmake -DFILE=<path> -DPATTERN=<regex> -P file_matches.cmake
file(READ "${FILE}" Body)
if(NOT Body MATCHES "${PATTERN}")
  message(FATAL_ERROR "${FILE} has no match for '${PATTERN}'")
endif()
