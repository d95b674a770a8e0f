# ctest helper: run EXE with ARGS (one space-separated string) and
# require exit status STATUS (default 0). With METRIC set, the run also
# writes a run report whose metrics.METRIC must be 0.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED STATUS)
    set(STATUS 0)
endif()
if(METRIC)
    set(report ${METRIC}_check_report.json)
    list(APPEND args --report=${report})
endif()

execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL STATUS)
    message(FATAL_ERROR "${EXE} ${ARGS}: exit status ${rc}, want ${STATUS}")
endif()

if(METRIC)
    file(READ ${report} json)
    string(JSON value GET "${json}" metrics ${METRIC})
    if(NOT value EQUAL 0)
        message(FATAL_ERROR "metrics.${METRIC} = ${value}, want 0")
    endif()
endif()
