# Build file of the wire-to-wire benchmark. benchmark/run.sh configures
# the normal tree with
#   -DCMAKE_PROJECT_packetshader_INCLUDE=<repo>/benchmark/targets.cmake
# so CMake includes this file right after project(packetshader), and no
# CMake file of the repo has to know about the benchmark. At that point the
# top level has not yet set CMAKE_CXX_STANDARD or the warning flags, and the
# ps_* libraries are defined later (target names resolve at generate time).
add_executable(ps_bench
  ${CMAKE_CURRENT_LIST_DIR}/ps_bench.cpp
  ${CMAKE_CURRENT_LIST_DIR}/wire.cpp
)
target_compile_features(ps_bench PRIVATE cxx_std_20)
target_compile_options(ps_bench PRIVATE -Wall -Wextra -Wno-missing-field-initializers)
target_link_libraries(ps_bench PRIVATE ps_apps ps_core ps_gen ps_route ps_crypto ps_telemetry)
set_target_properties(ps_bench PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/benchmark)
