# Deferred from hook.cmake into the root directory scope.
add_executable(bench_e2e ${RP_E2E_DIR}/bench_e2e.cpp)
target_link_libraries(bench_e2e PRIVATE rp_serve rp_exp rp_core)
