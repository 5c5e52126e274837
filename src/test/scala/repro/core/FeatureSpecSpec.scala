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
}
