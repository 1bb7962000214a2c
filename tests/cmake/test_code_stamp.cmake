# ctest driver for cmake/code_stamp.cmake:
#
#   cmake -DSTAMP_SCRIPT=<code_stamp.cmake> -DSOURCE_TREE=<dir>
#         -DWORK_DIR=<scratch dir> -P test_code_stamp.cmake
#
# Copies SOURCE_TREE twice and checks that identical copies get equal
# stamps, that copies differing by one byte get different stamps, that
# the compile flags feed the stamp, and that an unchanged tree leaves
# the generated header untouched.

foreach(var STAMP_SCRIPT SOURCE_TREE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "test_code_stamp: ${var} is not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${SOURCE_TREE}/" DESTINATION "${WORK_DIR}/a")
file(COPY "${SOURCE_TREE}/" DESTINATION "${WORK_DIR}/b")

# stamp(<var> <tree> <flags> <header>): run the script, read the stamp.
function(stamp out tree flags header)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -DHIRA_STAMP_SRC=${tree}
            "-DHIRA_STAMP_FLAGS=${flags}" -DHIRA_STAMP_OUT=${header}
            -P ${STAMP_SCRIPT}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "code_stamp.cmake failed on ${tree}: ${rc}")
    endif()
    file(READ "${header}" text)
    if(NOT text MATCHES "#define HIRA_CODE_STAMP \"([0-9a-f]+)\"")
        message(FATAL_ERROR "no stamp in ${header}:\n${text}")
    endif()
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

stamp(a "${WORK_DIR}/a" "-O2" "${WORK_DIR}/a.hh")
stamp(b "${WORK_DIR}/b" "-O2" "${WORK_DIR}/b.hh")
if(NOT a STREQUAL b)
    message(FATAL_ERROR "identical trees stamped differently: ${a} vs ${b}")
endif()

stamp(flags "${WORK_DIR}/a" "-O0" "${WORK_DIR}/flags.hh")
if(flags STREQUAL a)
    message(FATAL_ERROR "compile flags do not feed the stamp (${a})")
endif()

# Rerunning on an unchanged tree must not rewrite the header: plant a
# marker the script would overwrite if it wrote the file again.
file(APPEND "${WORK_DIR}/a.hh" "// marker\n")
stamp(again "${WORK_DIR}/a" "-O2" "${WORK_DIR}/a.hh")
file(READ "${WORK_DIR}/a.hh" text)
if(NOT text MATCHES "// marker")
    message(FATAL_ERROR "an unchanged stamp rewrote the header")
endif()

# Change one byte of one source file in copy b.
file(GLOB_RECURSE sources "${WORK_DIR}/b/*.cc")
list(SORT sources)
list(GET sources 0 victim)
file(READ "${victim}" content)
string(SUBSTRING "${content}" 0 1 first)
string(SUBSTRING "${content}" 1 -1 rest)
if(first STREQUAL "X")
    set(first "Y")
else()
    set(first "X")
endif()
file(WRITE "${victim}" "${first}${rest}")
stamp(b2 "${WORK_DIR}/b" "-O2" "${WORK_DIR}/b.hh")
if(b2 STREQUAL a)
    message(FATAL_ERROR "a one-byte edit of ${victim} kept stamp ${a}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "code stamp: ${a} (edited copy ${b2}, -O0 ${flags})")
