# End-to-end check of the rfmixd binary: feed the NDJSON request fixture
# through stdin and assert on the response lines, including that a
# line-permuted netlist (request 4) is served from cache with the same key
# as request 3 — the canonical-hashing contract, proven over the wire — and
# that requests in any envelope but v2 get the exact rejection bytes.
#
# Invoked by CTest as:
#   cmake -DRFMIXD=<binary> -DREQUESTS=<fixture> -DWORK_DIR=<dir> -P rfmixd_e2e.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${RFMIXD}"
  INPUT_FILE "${REQUESTS}"
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR
  RESULT_VARIABLE RC
  TIMEOUT 240
  WORKING_DIRECTORY "${WORK_DIR}")

if(NOT RC EQUAL 0)
  message(FATAL_ERROR "rfmixd exited with ${RC}\nstdout:\n${STDOUT}\nstderr:\n${STDERR}")
endif()

string(REGEX REPLACE "\n$" "" TRIMMED "${STDOUT}")
string(REPLACE "\n" ";" LINES "${TRIMMED}")
list(LENGTH LINES NLINES)
if(NOT NLINES EQUAL 16)
  message(FATAL_ERROR "expected 16 response lines, got ${NLINES}:\n${STDOUT}")
endif()

macro(expect_contains idx needle)
  list(GET LINES ${idx} _line)
  string(FIND "${_line}" "${needle}" _pos)
  if(_pos EQUAL -1)
    message(FATAL_ERROR "response ${idx} missing '${needle}':\n${_line}")
  endif()
endmacro()

function(expect_line idx expected)
  list(GET LINES ${idx} _line)
  if(NOT _line STREQUAL expected)
    message(FATAL_ERROR "response ${idx}:\n${_line}\nexpected:\n${expected}")
  endif()
endfunction()

# 1: ping
expect_contains(0 "\"id\":1")
expect_contains(0 "\"pong\":true")

# 2: DC operating point of the 6k/4k divider -> v(mid) = 4 V (up to gmin)
expect_contains(1 "\"ok\":true")
expect_contains(1 "\"analysis\":\"op\"")
list(GET LINES 1 LINE2)
if(NOT LINE2 MATCHES "\"mid\":(4([,.}])|3\\.99999)")
  message(FATAL_ERROR "divider mid voltage not ~4 V:\n${LINE2}")
endif()

# 3: AC sweep, cold
expect_contains(2 "\"ok\":true")
expect_contains(2 "\"cached\":false")
expect_contains(2 "\"analysis\":\"ac\"")

# 4: same circuit with permuted netlist lines -> cache hit, same key
expect_contains(3 "\"cached\":true")
list(GET LINES 2 LINE3)
list(GET LINES 3 LINE4)
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY3 "${LINE3}")
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY4 "${LINE4}")
if(NOT KEY3 STREQUAL KEY4 OR KEY3 STREQUAL "")
  message(FATAL_ERROR "permuted netlist changed the key: '${KEY3}' vs '${KEY4}'")
endif()
# Bit-identical cached result: the result payload of 3 and 4 must match.
string(REGEX MATCH "\"result\":.*$" RES3 "${LINE3}")
string(REGEX MATCH "\"result\":.*$" RES4 "${LINE4}")
if(NOT RES3 STREQUAL RES4)
  message(FATAL_ERROR "cached result differs from cold run:\n${RES3}\n${RES4}")
endif()

# 5: unknown kind -> structured error
expect_contains(4 "\"ok\":false")
expect_contains(4 "unknown request kind")

# 6: stats reflect 3 analysis submissions, 1 cache hit
expect_contains(5 "\"submitted\":3")
expect_contains(5 "\"cache_hits\":1")
expect_contains(5 "\"executed\":2")

# 7: v2 ping -> versioned envelope, no deprecation marker
expect_contains(6 "\"v\":2")
expect_contains(6 "\"id\":7")
expect_contains(6 "\"pong\":true")
list(GET LINES 6 LINE7)
if(LINE7 MATCHES "deprecated")
  message(FATAL_ERROR "v2 response carries the v1 deprecation marker:\n${LINE7}")
endif()

# 8: the same AC request as 3 under another id -> same key, cache hit
# (the envelope is not part of the content hash).
expect_contains(7 "\"v\":2")
expect_contains(7 "\"cached\":true")
list(GET LINES 7 LINE8)
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY8 "${LINE8}")
if(NOT KEY8 STREQUAL KEY3 OR KEY8 STREQUAL "")
  message(FATAL_ERROR "the envelope changed the content key: '${KEY3}' vs '${KEY8}'")
endif()

# 9: npath_zin (v2-only op), cold -> full Zin/S11 sweep payload
expect_contains(8 "\"id\":9")
expect_contains(8 "\"ok\":true")
expect_contains(8 "\"cached\":false")
expect_contains(8 "\"analysis\":\"npath_zin\"")
expect_contains(8 "\"s11_db\"")
expect_contains(8 "\"summary\"")

# 10: identical npath_zin request -> cache hit, same key, byte-identical
# result payload.
expect_contains(9 "\"id\":10")
expect_contains(9 "\"cached\":true")
list(GET LINES 8 LINE9)
list(GET LINES 9 LINE10)
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY9 "${LINE9}")
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY10 "${LINE10}")
if(NOT KEY9 STREQUAL KEY10 OR KEY9 STREQUAL "")
  message(FATAL_ERROR "repeated npath_zin changed the key: '${KEY9}' vs '${KEY10}'")
endif()
string(REGEX MATCH "\"result\":.*$" RES9 "${LINE9}")
string(REGEX MATCH "\"result\":.*$" RES10 "${LINE10}")
if(NOT RES9 STREQUAL RES10)
  message(FATAL_ERROR "cached npath_zin result differs from cold run:\n${RES9}\n${RES10}")
endif()

# 11: gen (v2-only op): a generated mismatched rx_array piped into a DC
# op, cold. The key is derived from the GenSpec, never the rendered deck.
expect_contains(10 "\"id\":11")
expect_contains(10 "\"ok\":true")
expect_contains(10 "\"cached\":false")
expect_contains(10 "\"analysis\":\"gen\"")
expect_contains(10 "\"probes\"")

# 12: identical gen request -> cache hit, same key, byte-identical result.
expect_contains(11 "\"id\":12")
expect_contains(11 "\"cached\":true")
list(GET LINES 10 LINE11)
list(GET LINES 11 LINE12)
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY11 "${LINE11}")
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY12 "${LINE12}")
if(NOT KEY11 STREQUAL KEY12 OR KEY11 STREQUAL "")
  message(FATAL_ERROR "repeated gen changed the key: '${KEY11}' vs '${KEY12}'")
endif()
string(REGEX MATCH "\"result\":.*$" RES11 "${LINE11}")
string(REGEX MATCH "\"result\":.*$" RES12 "${LINE12}")
if(NOT RES11 STREQUAL RES12)
  message(FATAL_ERROR "cached gen result differs from cold run:\n${RES11}\n${RES12}")
endif()

# 13: same spec rendered flat -> different key (hierarchical is part of
# the canonical record; the netlist payload differs between renderings)
# but a bit-identical solved result.
expect_contains(12 "\"id\":13")
expect_contains(12 "\"cached\":false")
list(GET LINES 12 LINE13)
string(REGEX MATCH "\"key\":\"[0-9a-f]+\"" KEY13 "${LINE13}")
if(KEY13 STREQUAL KEY11 OR KEY13 STREQUAL "")
  message(FATAL_ERROR "flat rendering shares the hierarchical key: '${KEY13}'")
endif()
string(REGEX MATCH "\"result\":.*$" RES13 "${LINE13}")
if(NOT RES13 STREQUAL RES11)
  message(FATAL_ERROR "flat gen solve differs from hierarchical:\n${RES11}\n${RES13}")
endif()

# 14-16: a version-less request, an explicit v1 and an empty object get the
# v2 unsupported_version error, the id echoed when present.
expect_line(13 [=[{"v":2,"id":7,"ok":false,"error":{"code":"unsupported_version","message":"unsupported protocol version (this server speaks v2)"}}]=])
expect_line(14 [=[{"v":2,"id":7,"ok":false,"error":{"code":"unsupported_version","message":"unsupported protocol version (this server speaks v2)"}}]=])
expect_line(15 [=[{"v":2,"id":null,"ok":false,"error":{"code":"unsupported_version","message":"unsupported protocol version (this server speaks v2)"}}]=])

message(STATUS "rfmixd e2e OK")
