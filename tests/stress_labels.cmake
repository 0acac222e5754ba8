# Included by ctest after every gtest_discover_tests include file of this
# directory, each of which lists its cases in <target>_TESTS. Labels the
# stress cases: every chaos case, which keeps its "chaos" label, and the
# determinism, capped-run and VM-budget cases of the other suites.
foreach(test IN LISTS chaos_test_TESTS)
  set_tests_properties(${test} PROPERTIES LABELS "chaos;stress")
endforeach()
foreach(target search_test vm_test trace_test deadline_test service_test
               column_store_test storage_differential_test
               coverage_differential_test)
  foreach(test IN LISTS ${target}_TESTS)
    if(test MATCHES "SearchParallel|VmBudget|VmMerge|BudgetPhase|TraceDeterminism|DegradedWorkCaps|StorageDifferential|PagerChaos|CoverageDifferential")
      set_tests_properties(${test} PROPERTIES LABELS stress)
    endif()
  endforeach()
endforeach()
