# Runs the benchmark with one answer corrupted on purpose and checks that the
# correctness gate fails the run: exit code 3 and a result line that reports
# "correct": false. Invoked by ctest with -DBENCH=<binary> -DOUT=<dir>.
foreach(mode flip-label drop-response)
  execute_process(
    COMMAND ${BENCH} --workload bulk-full --seed 1 --seconds 1 --trace 0
            --out-dir ${OUT} --corrupt ${mode}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 3)
    message(FATAL_ERROR "--corrupt ${mode}: expected exit code 3, got '${code}'\n${out}\n${err}")
  endif()
  string(REGEX MATCH "\"correct\": false" verdict "${out}")
  if(NOT verdict)
    message(FATAL_ERROR "--corrupt ${mode}: result line does not report correct=false\n${out}")
  endif()
endforeach()
