# ctest helper: run one pipelined lookup at --prepare-workers=4 with and
# without --timeline and require identical modeled makespans, with the
# configured worker count reported unchanged in both run reports.
set(args --mode=lookup --engine=event --batches=64 --batch=32
         --query-size=24 --serve-engines=8 --prepare-workers=4)

foreach(variant plain timeline)
    set(extra)
    if(variant STREQUAL "timeline")
        set(extra --timeline=prepare_workers_timeline.jsonl)
    endif()
    set(report prepare_workers_${variant}.json)
    execute_process(COMMAND "${SIM}" ${args} ${extra} --report=${report}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fafnir_sim (${variant}) exited with ${rc}")
    endif()
    file(READ ${report} json)
    string(JSON total_${variant} GET "${json}" metrics totalUs)
    string(JSON workers GET "${json}" config prepareWorkers)
    if(NOT workers EQUAL 4)
        message(FATAL_ERROR
                "${variant}: config.prepareWorkers = ${workers}, want 4")
    endif()
endforeach()

if(NOT total_plain STREQUAL total_timeline)
    message(FATAL_ERROR "telemetry changed the modeled makespan: "
                        "totalUs ${total_plain} vs ${total_timeline}")
endif()
