package repro.core.offline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.{Window, WindowSpec}
import org.apache.spark.sql.functions.col

/** The feature-window frame every offline plan lowers to:
  * `PARTITION BY keys ORDER BY ts RANGE BETWEEN rangeMs PRECEDING AND
  * CURRENT ROW`, with `ts` in epoch millis. Aggregates are named
  * `(output column, aggregate)` pairs.
  */
object RangeFrame {

  def spec(keys: Seq[Column], tsCol: String, rangeMs: Long): WindowSpec =
    Window.partitionBy(keys: _*).orderBy(col(tsCol).cast("long")).rangeBetween(-rangeMs, 0)

  /** Appends each aggregate, evaluated over `w`, as its named column. */
  def over(df: DataFrame, w: WindowSpec, aggs: Seq[(String, Column)]): DataFrame =
    aggs.foldLeft(df) { case (d, (name, agg)) => d.withColumn(name, agg.over(w)) }

  def apply(df: DataFrame, keyCol: String, tsCol: String, rangeMs: Long,
            aggs: Seq[(String, Column)]): DataFrame =
    over(df, spec(Seq(col(keyCol)), tsCol, rangeMs), aggs)
}
