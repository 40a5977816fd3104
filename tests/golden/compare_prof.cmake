# Runs `tseig_prof INPUT` inside DIR and fails unless its standard output is
# byte-identical to the file EXPECTED there.
#   cmake -DPROF=<tseig_prof> -DDIR=<dir> -DINPUT=<file> -DEXPECTED=<file>
#         -P compare_prof.cmake
execute_process(COMMAND ${PROF} ${INPUT}
                WORKING_DIRECTORY ${DIR}
                OUTPUT_VARIABLE got
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tseig_prof ${INPUT} exited with ${rc}")
endif()
file(READ ${DIR}/${EXPECTED} want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "tseig_prof ${INPUT} differs from ${EXPECTED}; got:\n"
                      "${got}")
endif()
