# End-to-end contract of the snipr_cli binary: every subcommand answers
# --help, `list` and a deterministic `batch` sweep succeed, `fleet NAME`
# writes exactly the golden bytes for that entry, invocations without
# a subcommand (or with a removed mode flag) are usage errors, and every
# option a subcommand would ignore is rejected by name while its --help
# lists exactly the options it takes. Run via
# ctest (cli_subcommands); expects -DSNIPR_CLI=<path>,
# -DGOLDEN_DIR=<tests/golden> and -DWORK_DIR=<scratch dir>.

cmake_minimum_required(VERSION 3.24)

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
  set(last_stderr "${stderr}" PARENT_SCOPE)
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

# 5. Options a subcommand does not use are rejected, naming the option
# and the subcommand; --help lists exactly the options taken. Each known
# option with a value that parses:
set(all_options
    "--scenario=roadside" "--mechanism=at" "--target=40" "--budget=5"
    "--csv" "--mechanisms=rh" "--targets=16" "--budgets=86.4" "--seeds=2"
    "--shards=2" "--threads=2" "--json=${WORK_DIR}/unused.json"
    "--epochs=1" "--warmup=1" "--seed=3" "--deterministic" "--ton=0.5"
    "--tcontact=2" "--trace-dir=${WORK_DIR}" "--replay-jitter=0" "--batch")
set(takes_run --scenario --mechanism --target --budget --csv --epochs
    --warmup --seed --deterministic --ton --tcontact)
set(takes_batch --scenario --target --budget --mechanisms --targets
    --budgets --seeds --threads --json --epochs --warmup --deterministic
    --ton --tcontact)
set(takes_fleet --shards --threads --json --epochs --seed)
set(takes_trace --mechanism --target --budget --csv --epochs --warmup
    --seed --deterministic --ton --tcontact --trace-dir --replay-jitter
    --batch)
set(takes_trace_batch --target --budget --mechanisms --targets --budgets
    --seeds --threads --json --epochs --warmup --deterministic --ton
    --tcontact --trace-dir --replay-jitter --batch)
set(takes_list)

function(check_subcommand key label)
  set(takes ${takes_${key}})
  foreach(option IN LISTS all_options)
    string(REPLACE "=" ";" words "${option}")
    list(GET words 0 flag)
    if(flag IN_LIST takes)
      continue()
    endif()
    expect_exit(2 ${ARGN} ${words})
    if(NOT last_stderr MATCHES "${flag} does not apply to '${label}'")
      message(FATAL_ERROR "'${label} ${flag}': rejection does not name "
                          "the option and subcommand:\n${last_stderr}")
    endif()
  endforeach()
endfunction()

check_subcommand(run "run" run)
check_subcommand(batch "batch" batch)
check_subcommand(fleet "fleet" fleet fleet-highway-1k)
check_subcommand(trace "trace" trace campus-3day)
check_subcommand(trace_batch "trace --batch" trace campus-3day --batch)
check_subcommand(list "list" list)

foreach(sub run batch fleet trace list)
  expect_exit(0 ${sub} --help)
  string(REGEX MATCHALL "--[a-z-]+" listed "${last_stdout}")
  list(REMOVE_ITEM listed --help)
  list(REMOVE_DUPLICATES listed)
  list(SORT listed)
  set(expected ${takes_${sub}})
  if(sub STREQUAL "trace")
    list(APPEND expected ${takes_trace_batch})
    list(REMOVE_DUPLICATES expected)
  endif()
  list(SORT expected)
  if(NOT "${listed}" STREQUAL "${expected}")
    message(FATAL_ERROR "'${sub} --help' lists [${listed}], but the "
                        "subcommand takes [${expected}]")
  endif()
endforeach()

message(STATUS "snipr_cli: subcommand contract holds")
