# Test driver: run a bench once per variant and require byte-identical
# stdout across all of them. A variant is either an environment
# assignment (NAME=value, set for that run only) or an extra argument
# appended after BENCH_ARGS. This one driver backs every "must be
# invisible in the output" gate: --jobs (docs/SWEEP_ENGINE.md), the
# MC_SIMD tier ladder and the MC_PACK_CACHE capacities (docs/PERF.md).
# Invoked as
#   cmake -DBENCH=<binary> "-DBENCH_ARGS=--csv;--reps=3" \
#         "-DVARIANTS=MC_SIMD=scalar;MC_SIMD=avx2" \
#         -P CompareVariants.cmake
# The first variant is the reference every other one must match.

if(NOT BENCH)
    message(FATAL_ERROR "BENCH not set")
endif()
if(NOT VARIANTS)
    message(FATAL_ERROR "VARIANTS not set")
endif()

foreach(variant IN LISTS VARIANTS)
    set(extra_args)
    if(variant MATCHES "^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
        set(env_name ${CMAKE_MATCH_1})
        set(ENV{${env_name}} "${CMAKE_MATCH_2}")
    else()
        set(env_name)
        set(extra_args ${variant})
    endif()
    execute_process(
        COMMAND ${BENCH} ${BENCH_ARGS} ${extra_args}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    if(env_name)
        unset(ENV{${env_name}})
    endif()
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BENCH} [${variant}] exited with ${rc}")
    endif()
    if(NOT DEFINED reference)
        set(reference ${variant})
        set(reference_out "${out}")
    elseif(NOT out STREQUAL reference_out)
        message(FATAL_ERROR
            "${variant} output differs from ${reference} for ${BENCH}:\n"
            "=== ${reference} ===\n${reference_out}\n"
            "=== ${variant} ===\n${out}")
    endif()
endforeach()
