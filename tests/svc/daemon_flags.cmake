# The numeric flags and environment values of rfmixd and rfmix-router are
# read whole: a value with trailing characters ("1e6", "5s", "8x") exits 2
# with a message naming the flag or variable, where a prefix parse would
# have run with 1, 5 or 8. Integer values still start the daemons.
#
# Invoked by CTest as:
#   cmake -DRFMIXD=<binary> -DROUTER=<binary> -DWORK_DIR=<dir> -P daemon_flags.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/ping.jsonl" "{\"v\":2,\"id\":1,\"kind\":\"ping\"}\n")

# run(<out-prefix> <command...>): stdin from /dev/null unless INPUT is set.
function(run prefix)
  if(NOT DEFINED INPUT)
    set(INPUT /dev/null)
  endif()
  execute_process(
    COMMAND ${ARGN}
    INPUT_FILE "${INPUT}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 60
    WORKING_DIRECTORY "${WORK_DIR}")
  set(${prefix}_RC "${rc}" PARENT_SCOPE)
  set(${prefix}_OUT "${out}" PARENT_SCOPE)
  set(${prefix}_ERR "${err}" PARENT_SCOPE)
endfunction()

# expect_rejected(<name> <command...>): exit 2, stderr names <name>.
function(expect_rejected name)
  run(R ${ARGN})
  if(NOT R_RC EQUAL 2)
    message(FATAL_ERROR "${ARGN}: expected exit 2, got ${R_RC}\nstderr:\n${R_ERR}")
  endif()
  string(FIND "${R_ERR}" "${name}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${ARGN}: stderr does not name ${name}:\n${R_ERR}")
  endif()
endfunction()

expect_rejected(--max-entries "${RFMIXD}" --max-entries 1e6)
expect_rejected(--timeout-ms "${RFMIXD}" --timeout-ms 5s)
expect_rejected(--max-inflight "${RFMIXD}" --max-inflight 8x)
expect_rejected(--max-output-kb "${RFMIXD}" --max-output-kb 0)
expect_rejected(RFMIX_CACHE_ENTRIES
  "${CMAKE_COMMAND}" -E env RFMIX_CACHE_ENTRIES=1e6 "${RFMIXD}")
expect_rejected(--workers "${ROUTER}" --socket unused.sock --workers 2x)
expect_rejected(--max-entries "${ROUTER}" --socket unused.sock --max-entries 1e6)

# Integer values, as perfbench and the router's supervisor pass them.
set(INPUT "${WORK_DIR}/ping.jsonl")
run(OK "${CMAKE_COMMAND}" -E env RFMIX_CACHE_ENTRIES=4096
  "${RFMIXD}" --max-entries 1000000 --timeout-ms 2500.5 --max-inflight 64 --max-output-kb 4096)
if(NOT OK_RC EQUAL 0 OR NOT OK_OUT MATCHES "\"pong\":true")
  message(FATAL_ERROR "rfmixd with integer flags: exit ${OK_RC}\nstdout:\n${OK_OUT}\nstderr:\n${OK_ERR}")
endif()
# The router parses its flags before it requires --socket.
unset(INPUT)
run(ROUTER "${ROUTER}" --workers 2 --max-entries 128)
string(FIND "${ROUTER_ERR}" "--socket is required" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "rfmix-router rejected integer flags:\n${ROUTER_ERR}")
endif()

message(STATUS "daemon flags OK")
