package repro.core.offline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.WindowSpec
import org.apache.spark.sql.functions._

/** Multi-window parallel optimization (§6.1).
  *
  * A query with several window functions over the same table but with
  * *different* partition keys is planned by vanilla Spark as a chain of
  * Window operators — each one a full sort (+ shuffle) of the whole row
  * payload, executed strictly sequentially.
  *
  * The paper's plan instead: (1) "Simple Project" start marker — add an
  * *index column* giving every tuple a unique identity; (2) compute each
  * window's features independently over a projection of only the columns
  * that window needs; (3) "Concat Join" end marker — align the per-window
  * outputs back to the original rows by joining on the index column (a
  * one-to-one Last Join in OpenMLDB), then drop the index to restore the
  * schema.
  *
  * On Spark the per-window branches become *independent stages* feeding
  * one join, so the scheduler overlaps them across cores (vs. the strictly
  * serial chain), and each branch sorts only its narrow projection.
  */
object MultiWindowParallel {

  /** One window's feature set: the window spec, the input columns it
    * needs, and (output name -> aggregate column) pairs.
    */
  final case class WindowFeatures(spec: WindowSpec, inputCols: Seq[String],
                                  features: Seq[(String, Column)])

  /** The sequential baseline: chained Window operators, as vanilla Spark
    * plans `SELECT f1 OVER w1, f2 OVER w2, ...`.
    */
  def sequential(input: DataFrame, windows: Seq[WindowFeatures]): DataFrame =
    windows.foldLeft(input)((df, wf) => RangeFrame.over(df, wf.spec, wf.features))

  /** The parallel-optimized plan. The input is materialised once with the
    * index column (monotonically_increasing_id is only stable across the
    * re-evaluations of the join branches if the block is cached first —
    * this is the "Column Add at the Simple Project node" step).
    *
    * Each branch sorts only the narrow projection its window needs — the
    * key saving over the sequential chain, which re-sorts the full row
    * payload once per window. The narrow branch outputs are concat-joined
    * together first, and the wide payload is joined back exactly once.
    */
  def parallel(input: DataFrame, windows: Seq[WindowFeatures]): DataFrame = {
    val Id = "__mwp_id"
    val withId = input.withColumn(Id, monotonically_increasing_id()).persist()
    withId.count() // pin the id assignment before branches re-read it
    val branches = windows.map { wf =>
      val narrow = withId.select((Id +: wf.inputCols.distinct).map(col): _*)
      RangeFrame.over(narrow, wf.spec, wf.features)
        .select((Id +: wf.features.map(_._1)).map(col): _*)
    }
    // Concat Join: one-to-one alignment on the index column; narrow
    // feature branches first, the wide payload exactly once at the end.
    val features = branches.reduce((a, b) => a.join(b, Seq(Id), "inner"))
    withId.join(features, Seq(Id), "inner").drop(Id)
  }
}
