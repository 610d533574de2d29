# End-to-end NN query cache smoke for `nncs_verify --scenario acasxu`,
# run as a ctest `cmake -P` script (see tools/CMakeLists.txt):
#
#   1. --nn-cache off reference run (--canonical-report)
#   2. --nn-cache memo: exact-match memoization only replays identical
#      queries, so the canonical report must stay byte-identical; the stats
#      line must show nonzero lookups (8x4 is the smallest partition whose
#      cells survive the t=0 error check long enough to query the NN)
#   3. --nn-cache containment is refused with the usage exit code 2, like
#      any value other than off|memo, and writes no report
#
# Required -D variables: VERIFY (binary), NETS (network cache dir), OUT (scratch
# directory for the generated files).

if(NOT DEFINED VERIFY OR NOT DEFINED NETS OR NOT DEFINED OUT)
  message(FATAL_ERROR "smoke_cli_nn_cache: pass -DVERIFY=... -DNETS=... -DOUT=...")
endif()

file(MAKE_DIRECTORY ${OUT})
file(REMOVE ${OUT}/refused.csv)
set(COMMON --steps 10 --m 4 --order 3 --threads 4
    --nets ${NETS} --quiet --canonical-report)

function(run_cli expected_code log out_var)
  execute_process(COMMAND ${VERIFY} --scenario acasxu ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT code EQUAL expected_code)
    message(FATAL_ERROR "${log}: expected exit ${expected_code}, got ${code}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "${log}: exit ${code} (as expected)")
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

run_cli(0 "nn-cache off run" off_stdout ${COMMON} --arcs 8 --headings 4 --depth 0
  --nn-cache off --report ${OUT}/off.csv)
if(off_stdout MATCHES "nn-cache")
  message(FATAL_ERROR "off run printed a cache stats line:\n${off_stdout}")
endif()
message(STATUS "off run prints no cache stats line (cache disabled), as expected")

run_cli(0 "nn-cache memo run" memo_stdout ${COMMON} --arcs 8 --headings 4 --depth 0
  --nn-cache memo --report ${OUT}/memo.csv)
if(NOT memo_stdout MATCHES "nn-cache \\(memo\\): [0-9]+ hits / ([0-9]+) lookups")
  message(FATAL_ERROR "memo run printed no cache stats line:\n${memo_stdout}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "memo run recorded zero cache lookups — the partition "
                      "never queried the NN, the byte-compare is vacuous:\n${memo_stdout}")
endif()
message(STATUS "memo run exercised the cache: ${CMAKE_MATCH_1} lookups")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT}/off.csv ${OUT}/memo.csv RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "canonical report differs between --nn-cache off and memo")
endif()
message(STATUS "off vs memo: canonical reports byte-identical")

run_cli(2 "nn-cache containment refused" refused_stdout ${COMMON} --arcs 8 --headings 4
  --depth 0 --nn-cache containment --report ${OUT}/refused.csv)
if(EXISTS ${OUT}/refused.csv)
  message(FATAL_ERROR "refused --nn-cache value still wrote a report")
endif()
message(STATUS "--nn-cache containment refused with the usage exit code")
