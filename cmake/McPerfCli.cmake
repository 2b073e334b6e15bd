# Command-line checks of mc_perf (docs/PERF.md, "Measuring it:
# mc_perf"), selected by -DCASES=:
#   modes      every combo through the timing sweep, the autotuner and
#              the pack sweep at toy sizes. No --check is passed, so no
#              timing can fail it; only mc_perf's own memcmp checks (a
#              fast path, tier, candidate block or cached panel that
#              changed the result bytes) can.
#   bad_lists  malformed --sizes, --threads and --shape entries: each
#              must be a usage error (exit 2), never a crash.
# Invoked as
#   cmake -DMC_PERF=<path> -DWORK_DIR=<dir> -DCASES=modes \
#         -P McPerfCli.cmake

foreach(var MC_PERF WORK_DIR CASES)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}=")
    endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_exit code)
    execute_process(
        COMMAND "${MC_PERF}" ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc STREQUAL code)
        message(FATAL_ERROR "mc_perf ${ARGN} exited with '${rc}', "
                "expected ${code}:\n${out}\n${err}")
    endif()
endfunction()

if(CASES STREQUAL "modes")
    expect_exit(0 --combos=all --sizes=64 --threads=1,2 --reps=1)
    expect_exit(0 --tune --combos=all --sizes=64 --tune-reps=1
                --tune-budget-sec=1 --tune-out=${WORK_DIR}/mc_tune.json)
    expect_exit(0 --pack-bench --combos=all "--shape=1,96,96\;16,256,256")
elseif(CASES STREQUAL "bad_lists")
    foreach(flag --sizes=abc --sizes=0 --sizes=-8 --threads=0
                 --threads=1,x --threads=-1)
        expect_exit(2 --combos=sgemm --reps=1 ${flag})
    endforeach()
    foreach(shape "1,x,3" "1,0,3" "1,-3,3" "1,3")
        expect_exit(2 --pack-bench --shape=${shape})
    endforeach()
else()
    message(FATAL_ERROR "unknown CASES '${CASES}'")
endif()
