# ctest helper: run EXE (with ARGS, one space-separated string) and
# require its stdout to match the checked-in GOLDEN file byte for byte.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(name "${GOLDEN}" NAME)
set(actual ${CMAKE_CURRENT_BINARY_DIR}/golden_${name})

execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_FILE ${actual}
                ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS}: exit status ${rc}: ${stderr}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${actual} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
    file(READ ${actual} got)
    file(READ ${GOLDEN} want)
    message(FATAL_ERROR "stdout differs from ${GOLDEN}\n"
                        "--- got (${actual}) ---\n${got}"
                        "--- want ---\n${want}")
endif()
