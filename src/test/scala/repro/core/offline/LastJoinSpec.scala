package repro.core.offline

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class LastJoinSpec extends SparkSpec {

  private lazy val requests = {
    import spark.implicits._
    Seq(
      (1L, 100L, "r1"), (1L, 250L, "r2"), (2L, 300L, "r3"), (3L, 50L, "r4"),
    ).toDF("k", "ts", "tag")
  }
  private lazy val profile = {
    import spark.implicits._
    Seq(
      (1L, 90L, "p_old"), (1L, 200L, "p_new"), (2L, 300L, "p_exact"), (4L, 10L, "p_other"),
    ).toDF("k", "pts", "pval")
  }

  private def ljOracleSql: String =
    """SELECT l.k, l.ts, l.tag,
      |  (SELECT r.pval FROM profile r
      |   WHERE r.k = l.k AND CAST(r.pts AS BIGINT) <= CAST(l.ts AS BIGINT)
      |   ORDER BY CAST(r.pts AS BIGINT) DESC, r.pval DESC LIMIT 1) AS pval
      |FROM requests l""".stripMargin

  test("last join picks the most recent at-or-before match") {
    val out = LastJoin(requests, profile, Seq("k"), "ts", "pts", Seq("pval"))
      .select("k", "ts", "tag", "pval")
    Oracle.assertEquivalent(out, ljOracleSql, "requests" -> requests, "profile" -> profile)
  }

  test("rows without any match keep nulls (left-outer semantics)") {
    val out = LastJoin(requests, profile, Seq("k"), "ts", "pts", Seq("pval")).collect()
    val noMatch = out.find(_.getString(2) == "r4").get
    assert(noMatch.isNullAt(3))
  }

  test("equal timestamps match (at-or-before is inclusive)") {
    val out = LastJoin(requests, profile, Seq("k"), "ts", "pts", Seq("pval")).collect()
    val exact = out.find(_.getString(2) == "r3").get
    assert(exact.getString(3) == "p_exact")
  }

  test("later right rows are invisible to earlier left rows") {
    val out = LastJoin(requests, profile, Seq("k"), "ts", "pts", Seq("pval")).collect()
    val r1 = out.find(_.getString(2) == "r1").get
    assert(r1.getString(3) == "p_old") // p_new at 200 > 100 is excluded
  }

  test("every left row is preserved exactly once") {
    val out = LastJoin(requests, profile, Seq("k"), "ts", "pts", Seq("pval"))
    assert(out.count() == requests.count())
  }

  test("duplicate left rows each get their own match") {
    import spark.implicits._
    val dupLeft = Seq((1L, 250L, "a"), (1L, 250L, "a")).toDF("k", "ts", "tag")
    val out = LastJoin(dupLeft, profile, Seq("k"), "ts", "pts", Seq("pval"))
    assert(out.count() == 2)
    assert(out.collect().forall(_.getString(3) == "p_new"))
  }

  test("right-side timestamp ties resolve deterministically (largest value)") {
    import spark.implicits._
    val left = Seq((1L, 100L)).toDF("k", "ts")
    val right = Seq((1L, 50L, "alpha"), (1L, 50L, "beta")).toDF("k", "pts", "pval")
    val out = LastJoin(left, right, Seq("k"), "ts", "pts", Seq("pval")).collect()
    assert(out.head.getString(2) == "beta")
  }

  test("multiple value columns ride along from the matched row") {
    import spark.implicits._
    val right = Seq((1L, 90L, "a", 1.0), (1L, 200L, "b", 2.0)).toDF("k", "pts", "v1", "v2")
    val out = LastJoin(requests.filter($"k" === 1L), right, Seq("k"), "ts", "pts", Seq("v1", "v2"))
      .orderBy("ts").collect()
    assert(out(0).getString(3) == "a" && out(0).getDouble(4) == 1.0)
    assert(out(1).getString(3) == "b" && out(1).getDouble(4) == 2.0)
  }

  test("composite keys are supported") {
    import spark.implicits._
    val left = Seq((1L, "x", 100L), (1L, "y", 100L)).toDF("k1", "k2", "ts")
    val right = Seq((1L, "x", 50L, "mx"), (1L, "y", 60L, "my")).toDF("k1", "k2", "pts", "pv")
    val out = LastJoin(left, right, Seq("k1", "k2"), "ts", "pts", Seq("pv"))
      .orderBy("k2").collect()
    assert(out.map(_.getString(3)).toSeq == Seq("mx", "my"))
  }

  test("null keys never match on either side") {
    import spark.implicits._
    val left = Seq((Some(1L), 100L, "l1"), (None, 100L, "lnull")).toDF("k", "ts", "tag")
    val right = Seq((Some(1L), 40L, "a"), (None, 60L, "rnull")).toDF("k", "pts", "pval")
    val out = LastJoin(left, right, Seq("k"), "ts", "pts", Seq("pval")).collect()
      .map(r => r.getString(2) -> Option(r.getString(3))).toMap
    assert(out == Map("l1" -> Some("a"), "lnull" -> None))
  }

  test("a right row with a null ts never matches") {
    import spark.implicits._
    val left = Seq((1L, Some(100L), "l1"), (2L, Some(100L), "l2"), (2L, None, "lnull"))
      .toDF("k", "ts", "tag")
    val right = Seq((1L, None, "zz"), (2L, None, "zz"), (2L, Some(90L), "b"))
      .toDF("k", "pts", "pval")
    val out = LastJoin(left, right, Seq("k"), "ts", "pts", Seq("pval")).collect()
      .map(r => r.getString(2) -> Option(r.getString(3))).toMap
    assert(out == Map("l1" -> None, "l2" -> Some("b"), "lnull" -> None))
  }

  test("output columns are the left columns, then the value columns") {
    import spark.implicits._
    val right = Seq((1L, 90L, "a", 1.0)).toDF("k", "pts", "v1", "v2")
    val out = LastJoin(requests, right, Seq("k"), "ts", "pts", Seq("v2", "v1"))
    assert(out.columns.toSeq == Seq("k", "ts", "tag", "v2", "v1"))
  }

  test("last join against a bigger random table agrees with the oracle") {
    import spark.implicits._
    val rnd = new scala.util.Random(42)
    val left = (1 to 200).map(i => (rnd.nextInt(20).toLong, rnd.nextInt(1000).toLong, s"L$i"))
      .toDF("k", "ts", "tag")
    val right = (1 to 300).map(i => (rnd.nextInt(20).toLong, rnd.nextInt(1000).toLong, s"R$i"))
      .toDF("k", "pts", "pval")
    val out = LastJoin(left, right, Seq("k"), "ts", "pts", Seq("pval"))
      .select("k", "ts", "tag", "pval")
    Oracle.assertEquivalent(out, ljOracleSql, "requests" -> left, "profile" -> right)
  }
}
