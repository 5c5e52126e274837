package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FeatureSpecSpec extends AnyFunSuite {

  test("a spec with LAST JOINs and no windows is rejected at construction") {
    val e = intercept[IllegalArgumentException] {
      FeatureSpec("actions", windows = Nil, features = Nil,
        lastJoins = Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"))))
    }
    assert(e.getMessage.contains("LAST JOIN") && e.getMessage.contains("first window"), e.getMessage)
  }

  test("a window with a negative range is rejected; a zero range is legal") {
    val e = intercept[IllegalArgumentException](WindowDef("w", "userid", "ts", -1L))
    assert(e.getMessage.contains("negative range"), e.getMessage)
    assert(WindowDef("w", "userid", "ts", 0L).rangeMs == 0L)
  }

  test("the offline plan over missing tables fails naming every one") {
    val spec = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 1000L, unionTables = Seq("orders"))),
      Seq(Feature("c", FeatureFn.Count, "w")), Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"))))
    // The check runs before the plan touches Spark, so no session is needed.
    val e = intercept[IllegalArgumentException](UnifiedPlanner.offline(null, Map.empty, spec))
    assert(e.getMessage.contains("actions, orders, profile"), e.getMessage)
  }
}
