# Injected after the root project() with
#   cmake -S . -B build-e2e -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/hook.cmake
# so the benchmark builds against the tree without editing any of its
# CMakeLists.txt. The target is deferred to the end of the root directory
# scope: that is where the root's flags (Release -O3 -march=native -DNDEBUG,
# the warning set) apply and where every rp_* library already exists.
# add_subdirectory cannot be deferred, hence an include.
include_guard(GLOBAL)
set(RP_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL include ${RP_E2E_DIR}/targets.cmake)
