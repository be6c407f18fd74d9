# End-to-end contract of the snipr_cli binary: every subcommand answers
# --help, `list` and a deterministic `batch` sweep succeed, `fleet NAME`
# writes exactly the golden bytes for that entry, and invocations without
# a subcommand (or with a removed mode flag) are usage errors. Run via
# ctest (cli_subcommands); expects -DSNIPR_CLI=<path>,
# -DGOLDEN_DIR=<tests/golden> and -DWORK_DIR=<scratch dir>.

if(NOT DEFINED SNIPR_CLI OR NOT DEFINED GOLDEN_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSNIPR_CLI=... -DGOLDEN_DIR=... "
                      "-DWORK_DIR=... -P cli_test.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_exit expected)
  execute_process(COMMAND "${SNIPR_CLI}" ${ARGN}
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected ${expected}\n"
                        "${stdout}${stderr}")
  endif()
  set(last_stdout "${stdout}" PARENT_SCOPE)
endfunction()

# 1. Per-subcommand help answers without running anything.
foreach(sub run batch fleet trace list)
  expect_exit(0 ${sub} --help)
  if(NOT last_stdout MATCHES "usage:")
    message(FATAL_ERROR "'${sub} --help' printed no usage")
  endif()
endforeach()

# 2. Catalog listing and a deterministic batch sweep.
expect_exit(0 list)
expect_exit(0 batch --deterministic --mechanisms rh --targets 16 --seeds 1
            --epochs 2)
if(NOT last_stdout MATCHES "^{\"schema\":")
  message(FATAL_ERROR "batch: expected JSON on stdout")
endif()

# 3. Fleet artifacts equal the golden corpus byte for byte (a plain, a
# routed v2 and a faulted v3 entry).
foreach(name fleet-highway-1k fleet-multihop-relay chaos-lossy-collection)
  expect_exit(0 fleet ${name} --epochs 3 --seed 1
              --json "${WORK_DIR}/${name}.json")
  file(READ "${WORK_DIR}/${name}.json" produced)
  file(READ "${GOLDEN_DIR}/${name}.json" golden)
  if(NOT produced STREQUAL golden)
    message(FATAL_ERROR "fleet ${name}: output differs from the golden file")
  endif()
endforeach()

# 4. No subcommand, or a removed mode flag under one: usage errors.
expect_exit(2 run --fleet fleet-highway-1k)
expect_exit(2 --batch --mechanisms rh --targets 16)
expect_exit(2)

message(STATUS "snipr_cli: subcommand contract holds")
