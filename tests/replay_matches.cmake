# Replays REQUESTS through `skatsim serve --threads THREADS` from
# SOURCE_DIR and fails unless the response stream equals the EXPECTED file
# once each response's wall-clock "latency_s" is masked to 0. The masked
# stream is written to ACTUAL, so a failure can be diffed against EXPECTED.
# Usage: cmake -DSKATSIM=<exe> -DSOURCE_DIR=<dir> -DTHREADS=<n>
#              -DREQUESTS=<jsonl> -DEXPECTED=<jsonl> -DACTUAL=<path>
#              -P replay_matches.cmake
execute_process(COMMAND ${SKATSIM} serve --threads ${THREADS} --in ${REQUESTS}
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err
                RESULT_VARIABLE Exit)
if(NOT Exit EQUAL 0)
  message(FATAL_ERROR "skatsim serve exited with ${Exit}: ${Err}")
endif()
string(REGEX REPLACE "\"latency_s\": [^,}]*" "\"latency_s\": 0" Masked
       "${Out}")
file(WRITE ${ACTUAL} "${Masked}")
file(READ ${EXPECTED} Want)
if(NOT Masked STREQUAL Want)
  message(FATAL_ERROR "replay of ${REQUESTS} differs from ${EXPECTED}; "
                      "the masked responses are in ${ACTUAL}")
endif()
