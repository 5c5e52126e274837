package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.functions.Aggregators
import repro.core.offline.{LastJoin, RangeFrame, WindowUnion}

/** Lowers a [[FeatureSpec]] to the offline Spark plan (§3.2 "Offline
  * Execution Mode"). The same spec drives
  * [[repro.core.online.RequestEngine]]; equality of the two outputs is the
  * reproduction of the paper's offline/online consistency property.
  */
object UnifiedPlanner {

  /** SQL text for a feature over the shared registered function set —
    * every non-native function here dispatches into AggCore, the library
    * both engines share.
    */
  private def fnColumn(fn: FeatureFn): Column = fn match {
    case FeatureFn.Count            => count(lit(1))
    case FeatureFn.Sum(c)           => sum(col(c).cast("double"))
    case FeatureFn.Avg(c)           => avg(col(c))
    case FeatureFn.Min(c)           => min(col(c).cast("double"))
    case FeatureFn.Max(c)           => max(col(c).cast("double"))
    case FeatureFn.DistinctCount(c) => expr(s"distinct_count(cast($c as string))")
    case FeatureFn.TopNFreq(c, n)   => expr(s"topn_frequency(cast($c as string), $n)")
    case FeatureFn.AvgCateWhere(v, cond, cate) =>
      expr(s"avg_cate_where(cast($v as double), $cond, cast($cate as string))")
    case FeatureFn.Drawdown(c)      => expr(s"drawdown(cast($c as double))")
    case FeatureFn.EwAvg(c, a)      => expr(s"ew_avg(cast($c as double), cast($a as double))")
  }

  /** Compute every feature of `spec` for every row of the primary table.
    *
    * @param tables name -> DataFrame for the primary, union and last-join
    *               tables referenced by the spec
    */
  def offline(spark: SparkSession, tables: Map[String, DataFrame], spec: FeatureSpec): DataFrame = {
    spec.requireTables(tables.contains)
    Aggregators.register(spark)
    val primary = tables(spec.primary)

    val withWindows = spec.windows.foldLeft(primary) { case (df, w) =>
      val feats = spec.features.filter(_.window == w.name).map(f => f.name -> fnColumn(f.fn))
      if (feats.isEmpty) df
      else if (w.unionTables.isEmpty) RangeFrame(df, w.keyCol, w.tsCol, w.rangeMs, feats)
      else {
        // WINDOW UNION: secondary rows feed the frames, primary rows are
        // the outputs. Already-computed feature columns ride along on the
        // primary side (they are not aggregate inputs).
        WindowUnion(df, w.unionTables.map(tables), w.keyCol, w.tsCol, w.rangeMs, feats)
      }
    }

    spec.lastJoins.foldLeft(withWindows) { case (df, lj) =>
      val right = tables(lj.table)
        .select((Seq(col(lj.keyCol), col(lj.tsCol)) ++
          lj.valCols.map(v => col(v).as(s"${lj.prefix}$v"))): _*)
      val w = spec.windows.head
      LastJoin(df, right, Seq(lj.keyCol), w.tsCol, lj.tsCol,
        lj.valCols.map(v => s"${lj.prefix}$v"))
    }
  }
}
