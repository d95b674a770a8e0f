# ctest helper: run EXE with ARGS (one space-separated string) and
# require exit status STATUS (default 0). With CHECKS set (a
# space-separated list of `section.key=value` or `section.key>number`
# items), the run also writes a run report, and each named field of it
# must equal the value (numerically when the value is a number) or
# exceed the number.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED STATUS)
    set(STATUS 0)
endif()
if(CHECKS)
    string(MAKE_C_IDENTIFIER "${ARGS}" tag)
    set(report exit_check_${tag}.json)
    list(APPEND args --report=${report})
endif()

execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL STATUS)
    message(FATAL_ERROR "${EXE} ${ARGS}: exit status ${rc}, want ${STATUS}")
endif()

if(CHECKS)
    file(READ ${report} json)
    separate_arguments(checks UNIX_COMMAND "${CHECKS}")
    foreach(check IN LISTS checks)
        if(NOT check MATCHES "^([A-Za-z]+)\\.([A-Za-z0-9_]+)([=>])(.+)$")
            message(FATAL_ERROR "malformed check '${check}'")
        endif()
        set(op ${CMAKE_MATCH_3})
        set(want ${CMAKE_MATCH_4})
        string(JSON value GET "${json}" ${CMAKE_MATCH_1} ${CMAKE_MATCH_2})
        if(op STREQUAL ">" AND value GREATER want)
        elseif(op STREQUAL "=" AND want MATCHES "^-?[0-9.]+$"
               AND value EQUAL want)
        elseif(op STREQUAL "=" AND value STREQUAL want)
        else()
            message(FATAL_ERROR "${check}: report has ${value}")
        endif()
    endforeach()
endif()
