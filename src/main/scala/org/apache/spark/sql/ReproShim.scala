package org.apache.spark.sql

/** Narrow bridge into `private[sql]` Spark APIs used by the reproduction:
  * reaching classic-session internals (the function registry).
  */
object ReproShim {

  /** Downcast to the classic (non-Connect) session, which owns
    * `sessionState`.
    */
  def classic(spark: SparkSession): org.apache.spark.sql.classic.SparkSession =
    spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
}
