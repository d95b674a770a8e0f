# ctest helper: ablation_payload's grid points share no state and its
# order-dependent error-feedback stream runs serially after the sweep,
# so --payload-accuracy must not serialize the sweep, and the table and
# accuracy report must be byte-identical at --jobs=1 and --jobs=4.
foreach(jobs 1 4)
    execute_process(COMMAND "${BENCH}" --batches=2 --jobs=${jobs}
                            --payload-accuracy=payload_accuracy_j${jobs}.json
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout_${jobs}
                    ERROR_VARIABLE stderr_${jobs})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "ablation_payload --jobs=${jobs} exited with "
                            "${rc}: ${stderr_${jobs}}")
    endif()
    file(READ payload_accuracy_j${jobs}.json accuracy_${jobs})
endforeach()

if(stderr_4 MATCHES "forces --jobs=1")
    message(FATAL_ERROR "--payload-accuracy clamped the sweep: ${stderr_4}")
endif()
if(NOT stdout_1 STREQUAL stdout_4)
    message(FATAL_ERROR "stdout differs between --jobs=1 and --jobs=4")
endif()
if(NOT accuracy_1 STREQUAL accuracy_4)
    message(FATAL_ERROR "accuracy report differs between --jobs=1 and "
                        "--jobs=4")
endif()
