package repro.core

/** The unified feature-script representation compiled by both execution
  * engines (§3.1 "Unified Query Plan Generator", §3.2 execution modes).
  *
  * A spec is the analysed form of an OpenMLDB-SQL deployment: named
  * windows (with optional WINDOW UNION table lists), window features
  * drawn from the OpenMLDB function set, and LAST JOINs against
  * reference tables. `UnifiedPlanner.offline` lowers it to a Spark
  * DataFrame plan; `RequestEngine` executes it per request tuple online.
  * Both lower onto the same [[repro.core.functions.AggCore]] states,
  * which is the consistency guarantee the paper builds the system around.
  */
final case class WindowDef(
    name: String,
    keyCol: String,
    tsCol: String,
    rangeMs: Long,
    unionTables: Seq[String] = Nil) {
  require(rangeMs >= 0, s"window $name has a negative range ($rangeMs ms); 0 means the rows at the same ts")
}

/** Window feature functions (the OpenMLDB SQL extension set, Table 1). */
sealed trait FeatureFn extends Serializable
object FeatureFn {
  case object Count                                                     extends FeatureFn
  final case class Sum(col: String)                                     extends FeatureFn
  final case class Avg(col: String)                                     extends FeatureFn
  final case class Min(col: String)                                     extends FeatureFn
  final case class Max(col: String)                                     extends FeatureFn
  final case class DistinctCount(col: String)                           extends FeatureFn
  final case class TopNFreq(col: String, n: Int)                        extends FeatureFn
  /** cond is a boolean column (precompute expressions into a column). */
  final case class AvgCateWhere(valCol: String, condCol: String, cateCol: String) extends FeatureFn
  final case class Drawdown(col: String)                                extends FeatureFn
  final case class EwAvg(col: String, alpha: Double)                    extends FeatureFn
}

final case class Feature(name: String, fn: FeatureFn, window: String)

/** LAST JOIN against a reference/stream table: the latest `table` row with
  * matching key and ts <= the request ts; `valCols` are emitted with
  * `prefix` prepended.
  */
final case class LastJoinDef(
    table: String,
    keyCol: String,
    tsCol: String,
    valCols: Seq[String],
    prefix: String = "")

final case class FeatureSpec(
    primary: String,
    windows: Seq[WindowDef],
    features: Seq[Feature],
    lastJoins: Seq[LastJoinDef] = Nil) {
  require(features.forall(f => windows.exists(_.name == f.window)),
    "every feature must reference a declared window")
  require(lastJoins.isEmpty || windows.nonEmpty,
    "a LAST JOIN takes the primary table's timestamp column from the first window; " +
      "declare at least one window when the spec has LAST JOINs")

  /** Fails naming every primary, union or LAST JOIN table that `present`
    * does not hold.
    */
  def requireTables(present: String => Boolean): Unit = {
    val missing = (primary +: windows.flatMap(_.unionTables) ++: lastJoins.map(_.table)).distinct.filterNot(present)
    require(missing.isEmpty, s"spec reads tables that are not given: ${missing.mkString(", ")}")
  }
}
