# Code stamp of the simulator library: a hash of every source file
# under a tree plus the compiler and flags it is built with.
#
#   cmake -DHIRA_STAMP_SRC=<dir> -DHIRA_STAMP_FLAGS=<text>
#         -DHIRA_STAMP_OUT=<header> -P code_stamp.cmake
#
# Writes <header> defining HIRA_CODE_STAMP as the first 16 hex digits of
# a SHA-256 over each file's path (relative to <dir>) and content, in
# sorted order, then <text>. The header is rewritten only when the
# stamp changes, so an unchanged tree recompiles nothing. The result
# cache folds the stamp into every key (src/sim/result_cache.hh): any
# edit that can change a result turns every cached entry into a miss.

foreach(var HIRA_STAMP_SRC HIRA_STAMP_OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "code_stamp.cmake: ${var} is not set")
    endif()
endforeach()

file(GLOB_RECURSE files LIST_DIRECTORIES false RELATIVE "${HIRA_STAMP_SRC}"
    "${HIRA_STAMP_SRC}/*.cc" "${HIRA_STAMP_SRC}/*.hh"
    "${HIRA_STAMP_SRC}/*.h" "${HIRA_STAMP_SRC}/CMakeLists.txt")
if(NOT files)
    message(FATAL_ERROR "code_stamp.cmake: no sources under ${HIRA_STAMP_SRC}")
endif()
list(SORT files)

set(manifest "")
foreach(f IN LISTS files)
    file(SHA256 "${HIRA_STAMP_SRC}/${f}" h)
    string(APPEND manifest "${f} ${h}\n")
endforeach()
string(APPEND manifest "flags ${HIRA_STAMP_FLAGS}\n")
string(SHA256 digest "${manifest}")
string(SUBSTRING "${digest}" 0 16 stamp)

set(line "#define HIRA_CODE_STAMP \"${stamp}\"")
set(old "")
if(EXISTS "${HIRA_STAMP_OUT}")
    file(READ "${HIRA_STAMP_OUT}" old)
endif()
string(FIND "${old}" "${line}" found)
if(found EQUAL -1)
    file(WRITE "${HIRA_STAMP_OUT}"
        "// Generated by cmake/code_stamp.cmake; do not edit.\n${line}\n")
endif()
